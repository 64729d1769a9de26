(* Bloom filters over canonicalized scalar keys, used for shard pruning.

   A filter answers "definitely absent" / "maybe present" for the set of
   values inserted into it.  Soundness of pruning rests on the *canonical
   key* scheme matching [Expr.cmp] equality: [Int i], [Date i] and
   [Float f] can all compare equal across kinds (cmp converts through
   float), so every numeric value hashes by the bit pattern of its float
   image — [Int 3], [Date 3] and [Float 3.0] share one key.  [-0.0] is
   normalized to [0.0] (they are [=] under IEEE compare).  Strings hash
   by content (FNV-1a); strings never compare equal to numbers, so the
   two key spaces may collide only at the cost of a false positive,
   which merely weakens pruning. *)

type t = {
  bits : Bytes.t;
  nbits : int;
  k : int;
}

(* ~10 bits/key, k=7 gives ~0.8% false positives at capacity. *)
let create expected =
  let expected = max 16 expected in
  let nbits =
    let b = expected * 10 in
    (* round up to a byte multiple, cap the tiny end *)
    max 128 ((b + 7) / 8 * 8)
  in
  { bits = Bytes.make (nbits / 8) '\000'; nbits; k = 7 }

let byte_size t = Bytes.length t.bits

(* splitmix64: cheap, well-mixed 64-bit finalizer. *)
let mix (h : int64) =
  let open Int64 in
  let h = add h 0x9e3779b97f4a7c15L in
  let h = mul (logxor h (shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = mul (logxor h (shift_right_logical h 27)) 0x94d049bb133111ebL in
  logxor h (shift_right_logical h 31)

(* Canonical keys (see header comment). *)
let key_float f =
  let f = if f = 0.0 then 0.0 else f in
  mix (Int64.bits_of_float f)

let key_int i = key_float (float_of_int i)

let key_string s =
  (* FNV-1a over bytes, then one extra mix round. *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  mix !h

let set_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.unsafe_set t.bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.unsafe_get t.bits byte) land (1 lsl bit) <> 0

(* Double hashing: bit_i = h1 + i*h2 (mod nbits). *)
let index t h1 h2 i =
  let x = Int64.add h1 (Int64.mul (Int64.of_int i) h2) in
  Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int t.nbits))

let add t key =
  let h1 = key and h2 = mix (Int64.lognot key) in
  for i = 0 to t.k - 1 do
    set_bit t (index t h1 h2 i)
  done

let mem t key =
  let h1 = key and h2 = mix (Int64.lognot key) in
  let rec go i = i >= t.k || (get_bit t (index t h1 h2 i) && go (i + 1)) in
  go 0

(* A filter over the canonical keys of every non-null value of [col].
   Booleans have no canonical key and add none. *)
let of_column (col : Column.t) =
  let t = create (Column.length col) in
  let rec go null = function
    | Column.Ints a -> Array.iteri (fun i k -> if not (null i) then add t (key_int k)) a
    | Column.Floats a -> Array.iteri (fun i f -> if not (null i) then add t (key_float f)) a
    | Column.Strings a -> Array.iteri (fun i s -> if not (null i) then add t (key_string s)) a
    | Column.Dicts (codes, dict) ->
      Array.iteri (fun i c -> if not (null i) then add t (key_string dict.(c))) codes
    | Column.Bools _ -> ()
    | Column.Nullmask (mask, c) -> go (fun i -> mask.(i)) c
  in
  go (fun _ -> false) col;
  t
