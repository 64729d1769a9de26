open Proteus_model

type kind = Kobj | Karr | Kstr | Kint | Kfloat | Kbool | Knull

(* A growable vector of non-negative ints, packed at the narrowest byte
   width (1, 2, 4 or 8) that holds every value pushed so far; a wider
   value re-packs it. Wide lanes are read as 16-bit halves, so no read
   boxes an [int32]/[int64]. A frozen vector is trimmed and only read. *)
module Pvec = struct
  type t = { mutable w : int; mutable b : Bytes.t; mutable n : int }

  let[@inline] u16 b i = Bytes.get_uint16_le b i
  let[@inline] u32 b i = u16 b i lor (u16 b (i + 2) lsl 16)

  let[@inline] get v i =
    match v.w with
    | 1 -> Bytes.get_uint8 v.b i
    | 2 -> u16 v.b (2 * i)
    | 4 -> u32 v.b (4 * i)
    | _ -> u32 v.b (8 * i) lor (u32 v.b ((8 * i) + 4) lsl 32)

  let set16 b i x = Bytes.set_uint16_le b i (x land 0xFFFF)
  let set32 b i x = set16 b i x; set16 b (i + 2) (x lsr 16)

  let set_raw b w i x =
    match w with
    | 1 -> Bytes.set_uint8 b i x
    | 2 -> set16 b (2 * i) x
    | 4 -> set32 b (4 * i) x
    | _ -> set32 b (8 * i) x; set32 b ((8 * i) + 4) (x lsr 32)

  let width x = if x < 0x100 then 1 else if x < 0x10000 then 2 else if x < 0x1_0000_0000 then 4 else 8

  (* [len] zeros, wide enough for values up to [max] *)
  let make len ~max = { w = width max; b = Bytes.make (width max * len) '\000'; n = len }

  let resize v w cap =
    let b = Bytes.create (w * cap) in
    if w = v.w then Bytes.blit v.b 0 b 0 (w * v.n)
    else for i = 0 to v.n - 1 do set_raw b w i (get v i) done;
    v.w <- w;
    v.b <- b

  let set v i x =
    if width x > v.w then resize v (width x) (Bytes.length v.b / v.w);
    set_raw v.b v.w i x

  let push3 v x y z =
    let w = width (x lor y lor z) in
    if w > v.w || (v.n + 3) * v.w > Bytes.length v.b then
      resize v (Int.max w v.w) (Int.max 256 (2 * v.n));
    set_raw v.b v.w v.n x;
    set_raw v.b v.w (v.n + 1) y;
    set_raw v.b v.w (v.n + 2) z;
    v.n <- v.n + 3

  let freeze v = { v with b = Bytes.sub v.b 0 (v.w * v.n) }

  let thaw v =
    let v = { v with n = v.n } in
    resize v v.w (Int.max 256 (2 * v.n));
    v

  let words v = 4 + (Bytes.length v.b / 8) + 2
end

(* [objs] holds (base, first entry, layout) per object; [ents] holds
   (offset from the object's base, length, kind) per entry: the object
   itself (slot 0), then each registered field in document pre-order. A
   layout is a decoded Level 0 kept sparse: (path id, first slot) pairs,
   ascending by id, one per distinct path of the layout, so its size is
   that of its own members; objects with equal pairs share one. [aliases]
   maps each raw spelling of a layout (the object's quoted member names
   as written, with '{' and '}' around a nested object's members) to it. *)
type t = {
  src : string;
  objs : Pvec.t;
  ents : Pvec.t;
  layouts : Pvec.t array;
  aliases : (string, int) Hashtbl.t;
  path_ids : (string, int) Hashtbl.t;  (* interned path names *)
  path_names : string array;
  all_paths : string list;
}

let source t = t.src
let object_count t = t.objs.n / 3
let layout_count t = Array.length t.layouts
let is_fixed_schema t = Array.length t.layouts = 1 && t.layouts.(0).n > 0

let fail pos fmt = Perror.parse_error ~what:"json-index" ~pos fmt
let kinds = [| Kobj; Karr; Kstr; Kint; Kfloat; Kbool; Knull |]

(* --- raw scanning ------------------------------------------------------- *)

(* Every scanner is a top-level function over the source and a bound
   that returns an int, as [Json.ws] and [Json.string_end] are. *)

let ws = Json.ws
let string_end = Json.string_end

(* A member name from [i] (after its opening quote at [q]) on: as
   [string_end], and an escaped name is decoded once to check its escapes
   where they are written. *)
let rec name_end src n q i =
  if i < n && String.unsafe_get src i = '\\' then begin
    ignore (Json.parse_string_lit src q);
    string_end src n i
  end
  else if i < n && String.unsafe_get src i <> '"' then name_end src n q (i + 1)
  else string_end src n i

let rec num_end src n i =
  if i < n && match String.unsafe_get src i with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  then num_end src n (i + 1)
  else i

(* the kind code of the value [\[start, stop)]: an index into [kinds] *)
let rec num_code src i stop =
  if i >= stop then 3
  else match String.unsafe_get src i with '.' | 'e' | 'E' -> 4 | _ -> num_code src (i + 1) stop

let code_at src start stop =
  match src.[start] with
  | '{' -> 0
  | '[' -> 1
  | '"' -> 2
  | 't' | 'f' -> 5
  | 'n' -> 6
  | _ -> num_code src start stop

(* Containers are skipped by a flat depth-counting automaton: this loop is
   the floor of every unnest over raw JSON, so it avoids per-value calls.
   [pos] at the opening bracket; returns the position after the matching
   closing one. *)
let container_end src n pos =
  let i = ref pos and depth = ref 0 and fin = ref (-1) in
  while !fin < 0 do
    if !i >= n then fail !i "unterminated container";
    (match String.unsafe_get src !i with
    | '{' | '[' -> incr depth
    | '}' | ']' ->
      decr depth;
      if !depth = 0 then fin := !i + 1
    | '"' -> i := string_end src n (!i + 1) - 1
    | _ -> ());
    incr i
  done;
  !fin

(* [i] at a value's first byte; the position after the value *)
let value_end src n i =
  if i >= n then fail i "unexpected end of input";
  match String.unsafe_get src i with
  | '"' -> string_end src n (i + 1)
  | '{' | '[' -> container_end src n i
  | 'n' | 't' -> i + 4
  | 'f' -> i + 5
  | '-' | '0' .. '9' -> num_end src n i
  | c -> fail i "unexpected character %C" c

(* --- the index scan ------------------------------------------------------- *)

(* The scan state: the growing vectors, the layout and alias tables, and
   the raw layout key of the object being scanned. *)
type builder = {
  b_src : string;
  b_objs : Pvec.t;
  b_ents : Pvec.t;
  mutable b_layouts : Pvec.t array;
  mutable b_nlayouts : int;
  b_aliases : (string, int) Hashtbl.t;
  by_slots : (int * string, int) Hashtbl.t;  (* Level 0 pairs -> layout *)
  b_path_ids : (string, int) Hashtbl.t;
  mutable b_names : string list;  (* interned paths, newest first *)
  mutable key : Bytes.t;
  mutable klen : int;
}

let key_add b src i j =
  let l = j - i in
  if b.klen + l >= Bytes.length b.key then b.key <- Bytes.extend b.key 0 (Bytes.length b.key + l);
  Bytes.blit_string src i b.key b.klen l;
  b.klen <- b.klen + l

(* An object's entry opens with its offset and kind, and gets its length
   once its members (which follow it) are scanned. *)
let object_open b rel =
  Pvec.push3 b.b_ents rel 0 0;
  b.b_ents.n - 3

let object_close b e len = Pvec.set b.b_ents (e + 1) len

(* The members of the object at [base] from byte [i] (after its '{') on:
   each value's entry goes to the vectors, each raw name to the key; a
   nested object's members follow its own entry ("register nested records
   in Level 0", Fig. 4), and array contents are not registered. Returns
   the position after the closing '}'. *)
let rec scan_members b src n base i =
  let i = ws src n i in
  if i >= n then fail i "unterminated object"
  else if String.unsafe_get src i = '}' then i + 1
  else begin
    if String.unsafe_get src i <> '"' then fail i "expected string";
    let qe = name_end src n i (i + 1) in
    key_add b src i qe;
    let j = ws src n qe in
    if j >= n || String.unsafe_get src j <> ':' then fail j "expected ':'";
    let vs = ws src n (j + 1) in
    if vs >= n then fail vs "unexpected end of input";
    let ve =
      if String.unsafe_get src vs = '{' then begin
        let e = object_open b (vs - base) in
        key_add b "{" 0 1;
        let ve = scan_members b src n base (vs + 1) in
        key_add b "}" 0 1;
        object_close b e (ve - vs);
        ve
      end
      else begin
        let ve = value_end src n vs in
        Pvec.push3 b.b_ents (vs - base) (ve - vs) (code_at src vs ve);
        ve
      end
    in
    let k = ws src n ve in
    if k < n && String.unsafe_get src k = ',' then scan_members b src n base (k + 1)
    else if k < n && String.unsafe_get src k = '}' then k + 1
    else fail k "expected ',' or '}'"
  end

let intern b p =
  match Hashtbl.find_opt b.b_path_ids p with
  | Some id -> id
  | None ->
    let id = Hashtbl.length b.b_path_ids in
    if id > 0xFFFF then
      Perror.unsupported "json index: more than 65536 field paths (first overflowing path: %S)" p;
    Hashtbl.replace b.b_path_ids p id;
    b.b_names <- p :: b.b_names;
    id

let push_grow arr n x =
  let arr = if n < Array.length arr then arr else Array.append arr (Array.make (Int.max 8 n) x) in
  arr.(n) <- x;
  arr

let slots_key (v : Pvec.t) = (v.n, Bytes.to_string v.b)

(* The layout whose slots hold path [ids.(k)] at slot [k + 1], made on its
   first sighting: its (path id, slot) pairs ascending by id, where a
   duplicated path keeps its first slot. *)
let layout_of_ids b ids =
  let order = Array.init (Array.length ids) Fun.id in
  Array.stable_sort (fun x y -> Int.compare ids.(x) ids.(y)) order;
  let first = List.filteri (fun i k -> i = 0 || ids.(order.(i - 1)) <> ids.(k)) (Array.to_list order) in
  let slots = Pvec.make (2 * List.length first) ~max:0 in
  List.iteri (fun i k -> Pvec.set slots (2 * i) ids.(k); Pvec.set slots ((2 * i) + 1) (k + 1)) first;
  match Hashtbl.find_opt b.by_slots (slots_key slots) with
  | Some l -> l
  | None ->
    let l = b.b_nlayouts in
    b.b_layouts <- push_grow b.b_layouts l slots;
    b.b_nlayouts <- l + 1;
    Hashtbl.replace b.by_slots (slots_key slots) l;
    l

(* Only a new raw spelling decodes its [nent] names, builds and interns
   its dotted paths and finds (or makes) its layout. *)
let add_alias b key nent =
  let ids = Array.make nent 0 in
  let rec walk i e prefixes last =
    if i < String.length key then
      match key.[i] with
      | '{' -> walk (i + 1) e (last :: prefixes) last
      | '}' -> walk (i + 1) e (List.tl prefixes) last
      | _ ->
        let name, j = Json.parse_string_lit key i in
        let path = match prefixes with [] -> name | p :: _ -> p ^ "." ^ name in
        ids.(e) <- intern b path;
        walk j (e + 1) prefixes path
  in
  walk 0 0 [] "";
  let layout = layout_of_ids b ids in
  Hashtbl.replace b.b_aliases key layout;
  layout

let scan_object b pos =
  let src = b.b_src in
  if src.[pos] <> '{' then fail pos "dataset element is not an object";
  b.klen <- 0;
  let root = object_open b 0 in
  let stop = scan_members b src (String.length src) pos (pos + 1) in
  object_close b root (stop - pos);
  let key = Bytes.sub_string b.key 0 b.klen in
  let layout =
    match Hashtbl.find_opt b.b_aliases key with
    | Some l -> l
    | None -> add_alias b key (((b.b_ents.n - root) / 3) - 1)
  in
  Pvec.push3 b.b_objs pos (root / 3) layout;
  stop

let rec scan_objects b pos =
  let pos = ws b.b_src (String.length b.b_src) pos in
  if pos < String.length b.b_src then scan_objects b (scan_object b pos)

(* A builder that goes on from [t]'s objects: copies of its vectors and
   tables, so readers of [t] keep theirs. *)
let builder_of (t : t) src =
  let by_slots = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace by_slots (slots_key l) i) t.layouts;
  {
    b_src = src;
    b_objs = Pvec.thaw t.objs;
    b_ents = Pvec.thaw t.ents;
    b_layouts = Array.copy t.layouts;
    b_nlayouts = Array.length t.layouts;
    b_aliases = Hashtbl.copy t.aliases;
    by_slots;
    b_path_ids = Hashtbl.copy t.path_ids;
    b_names = List.rev (Array.to_list t.path_names);
    key = Bytes.create 256;
    klen = 0;
  }

let freeze b =
  let path_names = Array.of_list (List.rev b.b_names) in
  {
    src = b.b_src;
    objs = Pvec.freeze b.b_objs;
    ents = Pvec.freeze b.b_ents;
    layouts = Array.sub b.b_layouts 0 b.b_nlayouts;
    aliases = b.b_aliases;
    path_ids = b.b_path_ids;
    path_names;
    all_paths = List.sort String.compare (Array.to_list path_names);
  }

let build src =
  let none = Pvec.make 0 ~max:0 in
  let b =
    builder_of
      { src; objs = none; ents = none; layouts = [||]; aliases = Hashtbl.create 64;
        path_ids = Hashtbl.create 64; path_names = [||]; all_paths = [] }
      src
  in
  scan_objects b 0;
  freeze b

let object_span t obj =
  let base = Pvec.get t.objs (3 * obj) in
  (base, base + Pvec.get t.ents ((3 * Pvec.get t.objs ((3 * obj) + 1)) + 1))

(* Objects are self-delimiting and the old source parsed whole, so the
   appended objects start after the last indexed one. *)
let extend (t : t) src =
  let b = builder_of t src in
  let n = object_count t in
  scan_objects b (if n = 0 then 0 else snd (object_span t (n - 1)));
  if is_fixed_schema t && b.b_nlayouts > 1 then None else Some (freeze b)

let paths t = t.all_paths
let path_id t path = Hashtbl.find_opt t.path_ids path

let rec search l id lo hi =
  if lo >= hi then -1
  else
    let m = (lo + hi) / 2 in
    let x = Pvec.get l (2 * m) in
    if x = id then Pvec.get l ((2 * m) + 1)
    else if x < id then search l id (m + 1) hi
    else search l id lo m

(* The slot of path [id] in object [obj]'s layout; [-1] when the object
   lacks the field — the option-free form the per-tuple path uses. Paths
   are interned in first-seen order, so a layout that holds every path of
   its dataset holds ids 0 .. n - 1 and the first probe, at pair [id],
   hits; any other layout is searched by halves. *)
let slot_by_id t ~obj ~id =
  let l = t.layouts.(Pvec.get t.objs ((3 * obj) + 2)) in
  let n = l.n / 2 in
  if id >= 0 && id < n && Pvec.get l (2 * id) = id then Pvec.get l ((2 * id) + 1)
  else search l id 0 n

let slot t path =
  match path_id t path with
  | Some id when is_fixed_schema t ->
    let s = slot_by_id t ~obj:0 ~id in
    if s < 0 then None else Some s
  | _ -> None

(* --- allocation-free span access ----------------------------------------- *)

type span = {
  mutable sp_start : int;
  mutable sp_stop : int;
  mutable sp_kind : kind;
}

let make_span () = { sp_start = 0; sp_stop = 0; sp_kind = Knull }

let entry_span t ~obj ~slot sp =
  let base = Pvec.get t.objs (3 * obj) in
  let e = 3 * (Pvec.get t.objs ((3 * obj) + 1) + slot) in
  let start = base + Pvec.get t.ents e in
  sp.sp_start <- start;
  sp.sp_stop <- start + Pvec.get t.ents (e + 1);
  sp.sp_kind <- kinds.(Pvec.get t.ents (e + 2))

let absent sp ~at =
  sp.sp_start <- at;
  sp.sp_stop <- at;
  sp.sp_kind <- Knull

let field_span t ~obj ~id sp =
  let slot = slot_by_id t ~obj ~id in
  if slot >= 0 then entry_span t ~obj ~slot sp else absent sp ~at:(Pvec.get t.objs (3 * obj))

let span_at t ~start ~stop sp =
  sp.sp_start <- start;
  sp.sp_stop <- stop;
  sp.sp_kind <- kinds.(code_at t.src start stop)

(* --- span decoding ------------------------------------------------------ *)

let span_int t sp = Numparse.int_span t.src ~start:sp.sp_start ~stop:sp.sp_stop

let span_float t sp =
  Numparse.float_span t.src ~start:sp.sp_start ~stop:sp.sp_stop

let span_bool t sp = t.src.[sp.sp_start] = 't'

let rec plain src i stop = i >= stop || (String.unsafe_get src i <> '\\' && plain src (i + 1) stop)

let span_string t sp =
  (* The span includes the quotes; decode escapes only if present. *)
  let src = t.src and raw_start = sp.sp_start + 1 and raw_stop = sp.sp_stop - 1 in
  if plain src raw_start raw_stop then String.sub src raw_start (raw_stop - raw_start)
  else fst (Json.parse_string_lit src sp.sp_start)

let span_value t sp : Value.t =
  match sp.sp_kind with
  | Kint -> Value.Int (span_int t sp)
  | Kfloat -> Value.Float (span_float t sp)
  | Kbool -> Value.Bool (span_bool t sp)
  | Knull -> Value.Null
  | Kstr -> Value.String (span_string t sp)
  | Kobj | Karr -> Json.to_value (fst (Json.parse t.src ~pos:sp.sp_start))

(* --- un-indexed spans: array elements and object members ----------------- *)

(* Validated bytes, walked closure-free within the bound [stop] of the
   enclosing value: [member_at] is the opening quote of the member at or
   after [i], or -1 at the object's end; [member_value] the value start of
   the member whose name opens at [q]; [next_member] the member after a
   value that ends at [ve]. *)
let member_at src stop i =
  let i = ws src stop i in
  if i < stop && String.unsafe_get src i <> '}' then i else -1

let member_value src stop q =
  let j = ws src stop (string_end src stop (q + 1)) in
  if j >= stop || String.unsafe_get src j <> ':' then fail j "expected ':'";
  ws src stop (j + 1)

let next_member src stop ve =
  let k = ws src stop ve in
  if k < stop && String.unsafe_get src k = ',' then member_at src stop (k + 1) else -1

let rec elements src stop f i =
  let i = ws src stop i in
  if i < stop then
    if String.unsafe_get src i = ',' then elements src stop f (i + 1)
    else begin
      let ve = value_end src stop i in
      f ~start:i ~stop:ve;
      elements src stop f ve
    end

let iter_array_spans t sp ~f = elements t.src (sp.sp_stop - 1) f (sp.sp_start + 1)

let rec members src stop f q =
  if q >= 0 then begin
    let vs = member_value src stop q in
    let ve = value_end src stop vs in
    f (fst (Json.parse_string_lit src q)) ~start:vs ~stop:ve;
    members src stop f (next_member src stop ve)
  end

let iter_members t sp ~f =
  let src = t.src and stop = sp.sp_stop in
  members src stop f (member_at src stop (sp.sp_start + 1))

(* Does the name whose opening quote is at [q] equal [name]? Compared
   against the raw bytes; an escaped name falls back to the decoder. *)
let rec name_eq src q name i j =
  match src.[i] with
  | '\\' -> String.equal (fst (Json.parse_string_lit src q)) name
  | '"' -> j = String.length name
  | c -> j < String.length name && Char.equal c name.[j] && name_eq src q name (i + 1) (j + 1)

let rec name_index src q names k =
  if k >= Array.length names then -1
  else if name_eq src q names.(k) (q + 1) 0 then k
  else name_index src q names (k + 1)

let rec fields src stop names starts stops remaining q =
  if q >= 0 then begin
    let vs = member_value src stop q in
    let ve = value_end src stop vs in
    let k = name_index src q names 0 in
    let found = k >= 0 && starts.(k) < 0 in
    if found then begin
      starts.(k) <- vs;
      stops.(k) <- ve
    end;
    let remaining = if found then remaining - 1 else remaining in
    if remaining > 0 then fields src stop names starts stops remaining (next_member src stop ve)
  end

(* Bounded field extraction for the Unnest code path: walk the members of
   the object span once, filling the value spans of the requested names, and
   stop as soon as all of them are found. [starts.(i) = -1] marks a missing
   field. *)
let scan_span_fields t ~start ~stop ~names ~starts ~stops =
  let src = t.src in
  Array.fill starts 0 (Array.length starts) (-1);
  if src.[start] <> '{' then fail start "unnest element is not an object";
  if Array.length names > 0 then
    fields src stop names starts stops (Array.length names) (member_at src stop (start + 1))

(* The value start of member [name] from the member at [q] on, or -1 *)
let rec find_member src stop name q =
  if q < 0 then -1
  else
    let vs = member_value src stop q in
    if name_eq src q name (q + 1) 0 then vs
    else find_member src stop name (next_member src stop (value_end src stop vs))

(* Scan the (un-indexed) object at [start,stop) for a pre-split dotted
   path, writing the value span of the final segment into the scratch
   [sp]; intermediate object spans travel through [sp] itself. *)
let rec find_parts_span t ~start ~stop ~parts sp =
  let src = t.src in
  match parts with
  | [] -> false
  | name :: rest ->
    src.[start] = '{'
    &&
    let vs = find_member src stop name (member_at src stop (start + 1)) in
    vs >= 0
    && begin
      span_at t ~start:vs ~stop:(value_end src stop vs) sp;
      match rest with
      | [] -> true
      | _ -> find_parts_span t ~start:sp.sp_start ~stop:sp.sp_stop ~parts:rest sp
    end

(* The heap words the index holds beside its source: records and array
   blocks by their sizes, the interned names once (the tables share them),
   each table's record, buckets and one cell per binding. *)
let byte_size t =
  let str s = (String.length s / 8) + 2 and arr a = Array.length a + 1 in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let table h = let st = Hashtbl.stats h in 5 + st.num_buckets + 1 + (4 * st.num_bindings) in
  let layouts = arr t.layouts + sum Pvec.words t.layouts in
  let aliases = table t.aliases + Hashtbl.fold (fun k _ acc -> acc + str k) t.aliases 0 in
  let names = arr t.path_names + sum str t.path_names + (3 * List.length t.all_paths) in
  8 * (9 + Pvec.words t.objs + Pvec.words t.ents + layouts + aliases + names + table t.path_ids)
