(* Sorted projections: the OID permutation that orders a promoted column
   by value, over the column's own value array (shared, not copied: the
   cached column is immutable, and an extended column comes with an
   extended projection). Zone maps skip morsels only when the data is
   clustered — on scrambled data every zone's [min, max] spans the whole
   domain and nothing is provably empty. A sorted projection fixes that:
   binary-searching the values in permutation order turns a range
   conjunct into a contiguous interval of *sorted positions*, and pushing
   each position through the permutation marks exactly the zones (in
   original row order) that can hold a qualifying row. Everything else
   skips.

   Bit-identity: the projection never changes what the scan reads — rows
   still stream in OID order over the same morsel grid; the permutation is
   consulted only to decide which zones are provably empty of matches. A
   zone is unmarked only when no qualifying sorted position maps into it,
   so dropping it cannot change any result.

   Null rows are absent from [perm]: [Expr.cmp] maps any comparison with a
   Null operand to false, so a zone holding only nulls and non-qualifying
   values is skippable outright — the same argument zone maps rest on.

   Determinism: ties sort by OID, so the permutation is a pure function of
   the column contents; the zone granule is [Zonemap.zone_rows], the same
   formula the morsel dispenser uses (an extended projection keeps the
   granule it was built with, as an extended zone map does). *)

type keys = K_int of int array | K_float of float array

type t = {
  perm : int array;  (* sorted position -> OID; non-null rows only *)
  keys : keys;       (* the column's values by OID: [keys.(perm.(p))] ascend *)
  rows : int;        (* OID-space rows covered *)
  zone : int;        (* rows per zone, = Zonemap.zone_rows rows *)
  nzones : int;
}

let rows t = t.rows

let n_keys t = Array.length t.perm

(* the values are the column's, counted with it *)
let byte_size t = (8 * Array.length t.perm) + t.nzones + 40

(* Build over numeric (optionally nullable) columns. Floats containing a
   NaN bail: [Float.compare]'s total order would disagree with the IEEE
   comparisons the engine evaluates predicates with, breaking the binary
   search's monotonicity contract. *)
let of_column (col : Column.t) : t option =
  let finish rows perm keys =
    if rows = 0 then None
    else
      let zone = Zonemap.zone_rows rows in
      Some { perm; keys; rows; zone; nzones = (rows + zone - 1) / zone }
  in
  let sorted_oids n present cmp =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if present i then incr count
    done;
    let perm = Array.make !count 0 in
    let k = ref 0 in
    for i = 0 to n - 1 do
      if present i then begin
        perm.(!k) <- i;
        incr k
      end
    done;
    Array.sort (fun i j -> let c = cmp i j in if c <> 0 then c else compare i j) perm;
    perm
  in
  match col with
  | Column.Ints a ->
    let n = Array.length a in
    let perm = sorted_oids n (fun _ -> true) (fun i j -> Int.compare a.(i) a.(j)) in
    finish n perm (K_int a)
  | Column.Nullmask (mask, Column.Ints a) ->
    let n = Array.length a in
    let perm =
      sorted_oids n (fun i -> not mask.(i)) (fun i j -> Int.compare a.(i) a.(j))
    in
    finish n perm (K_int a)
  | Column.Floats a ->
    let n = Array.length a in
    if Array.exists Float.is_nan a then None
    else
      let perm =
        sorted_oids n (fun _ -> true) (fun i j -> Float.compare a.(i) a.(j))
      in
      finish n perm (K_float a)
  | Column.Nullmask (mask, Column.Floats a) ->
    let n = Array.length a in
    let nan = ref false in
    for i = 0 to n - 1 do
      if (not mask.(i)) && Float.is_nan a.(i) then nan := true
    done;
    if !nan then None
    else
      let perm =
        sorted_oids n (fun i -> not mask.(i)) (fun i j -> Float.compare a.(i) a.(j))
      in
      finish n perm (K_float a)
  | Column.Bools _ | Column.Strings _ | Column.Dicts _ | Column.Nullmask _ ->
    None

(* Insert the sorted OID run [pb] into the sorted permutation [pa], [cmp]
   comparing the values at two OIDs. Every OID of [pb] exceeds [pa]'s, so
   an inserted OID lands after every equal value: a binary search finds
   its place and the runs between move with one blit each — a short run
   costs its searches plus one copy of the long one. *)
let merge cmp (pa : int array) (pb : int array) =
  let na = Array.length pa and nb = Array.length pb in
  if nb = 0 then pa
  else begin
    let perm = Array.make (na + nb) 0 in
    let next = ref 0 in
    for j = 0 to nb - 1 do
      let lo = ref !next and hi = ref na in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cmp pa.(mid) pb.(j) <= 0 then lo := mid + 1 else hi := mid
      done;
      Array.blit pa !next perm (!next + j) (!lo - !next);
      perm.(!lo + j) <- pb.(j);
      next := !lo
    done;
    Array.blit pa !next perm (!next + nb) (na - !next);
    perm
  end

(* After an append: the column grew past the rows [t] covers. The rows
   [t.rows, n) are sorted on their own and merged in, keeping the zone
   width; the result orders and marks exactly as [of_column] over the
   grown column does at that width. [None] when the column's kind changed
   or a NaN arrived (see [of_column]). *)
let extend t (col : Column.t) : t option =
  let n = Column.length col in
  let present i =
    match col with Column.Nullmask (m, _) -> not m.(i) | _ -> true
  in
  let grow keys cmp =
    let pb =
      Array.of_list (List.filter present (List.init (n - t.rows) (fun k -> t.rows + k)))
    in
    Array.stable_sort cmp pb;
    let nzones = (n + t.zone - 1) / t.zone in
    Some { t with perm = merge cmp t.perm pb; keys; rows = n; nzones }
  in
  if n <= t.rows then Some t
  else
    match t.keys, col with
    | K_int _, (Column.Ints a | Column.Nullmask (_, Column.Ints a)) ->
      grow (K_int a) (fun i j -> Int.compare a.(i) a.(j))
    | K_float _, (Column.Floats a | Column.Nullmask (_, Column.Floats a)) ->
      let nan = ref false in
      for i = t.rows to n - 1 do
        if present i && Float.is_nan a.(i) then nan := true
      done;
      if !nan then None else grow (K_float a) (fun i j -> Float.compare a.(i) a.(j))
    | _ -> None

(* first sorted position whose key compares >= 0 (resp. > 0) against the
   constant under [cmp] *)
let lower_bound cmp n =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp mid < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound cmp n =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp mid <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Sorted-position interval [plo, phi) of keys satisfying [column op const].
   Mixed int/float comparisons go through float conversion, mirroring
   [Expr.cmp] (and [Zonemap.zone_may_match]). [None] = unsupported test:
   the caller falls back to zone maps. *)
let select t (test : Zonemap.test) : (int * int) option =
  let n = n_keys t in
  let p = t.perm in
  let cmp =
    match t.keys, test with
    | K_int a, Zonemap.T_int (_, c) -> Some (fun i -> Int.compare a.(p.(i)) c)
    | K_int a, Zonemap.T_float (_, c) ->
      Some (fun i -> Float.compare (float_of_int a.(p.(i))) c)
    | K_float a, Zonemap.T_int (_, c) ->
      let c = float_of_int c in
      Some (fun i -> Float.compare a.(p.(i)) c)
    | K_float a, Zonemap.T_float (_, c) -> Some (fun i -> Float.compare a.(p.(i)) c)
    | _, Zonemap.T_str _ -> None
  in
  match cmp with
  | None -> None
  | Some cmp ->
    let op =
      match test with
      | Zonemap.T_int (op, _) | Zonemap.T_float (op, _) | Zonemap.T_str (op, _)
        -> op
    in
    Some
      (match op with
      | Zonemap.Eq -> (lower_bound cmp n, upper_bound cmp n)
      | Zonemap.Lt -> (0, lower_bound cmp n)
      | Zonemap.Le -> (0, upper_bound cmp n)
      | Zonemap.Gt -> (upper_bound cmp n, n)
      | Zonemap.Ge -> (lower_bound cmp n, n))

let mark t bits ~plo ~phi =
  for p = plo to phi - 1 do
    bits.(t.perm.(p) / t.zone) <- true
  done

(* Zone bitmap for the CONJUNCTION of [tests] (all on this column): the
   position intervals intersect to one contiguous band, whose permuted
   zones are the only ones that can match. [None] if any test is
   unsupported — conservative fallback, never a wrong skip. *)
let zones_for t (tests : Zonemap.test list) : bool array option =
  let rec go plo phi = function
    | [] -> Some (plo, phi)
    | tst :: rest -> (
      match select t tst with
      | None -> None
      | Some (l, h) -> go (max plo l) (min phi h) rest)
  in
  match tests with
  | [] -> None
  | _ -> (
    match go 0 (n_keys t) tests with
    | None -> None
    | Some (plo, phi) ->
      let bits = Array.make t.nzones false in
      mark t bits ~plo ~phi;
      Some bits)

(* Zone bitmap for the DISJUNCTION of [tests] — "key may be any of these
   build-side values" during join-probe pruning. *)
let zones_union t (tests : Zonemap.test list) : bool array option =
  let bits = Array.make t.nzones false in
  let rec go = function
    | [] -> Some bits
    | tst :: rest -> (
      match select t tst with
      | None -> None
      | Some (plo, phi) ->
        mark t bits ~plo ~phi;
        go rest)
  in
  match tests with [] -> None | tests -> go tests

(* Can any row of [\[lo, hi)] land in a marked zone? Rows past [t.rows] are
   "maybe" — the projection never claims knowledge beyond the column it was
   built on (mirrors [Zonemap.may_match_range]). *)
let range_may_match t (bits : bool array) ~lo ~hi =
  if hi <= lo then false
  else if lo >= t.rows then true
  else begin
    let hi_capped = min hi t.rows in
    let z0 = lo / t.zone and z1 = (hi_capped - 1) / t.zone in
    let rec go z = z <= z1 && (bits.(z) || go (z + 1)) in
    go z0 || hi > t.rows
  end
