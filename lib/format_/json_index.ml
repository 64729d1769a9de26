open Proteus_model

type kind = Kobj | Karr | Kstr | Kint | Kfloat | Kbool | Knull

type entry = { start : int; stop : int; kind : kind }

(* Per-object storage is packed into raw bytes so the index footprint stays
   a small fraction of the input (the paper reports ~15-25%):

   - entry i (1-based; 0 is the synthesized whole-object root):
     5 bytes at [5*(i-1)]: rel_start:u16, len:u16, kind:u8 — positions are
     relative to the object base, so u16 suffices for objects <64 KiB;
   - flexible-schema Level 0 follows the entries: 3 bytes per field,
     path_id:u16 (interned globally) + slot:u8, sorted by path_id.

   Objects too large for the packed widths fall back to a boxed "wide"
   representation. *)
type obj_repr =
  | Packed of {
      base : int;
      size : int;
      pdata : Bytes.t;
      nentries : int;   (* excluding the root *)
      nlevel0 : int;    (* 0 in fixed-schema mode *)
    }
  | Wide of {
      w_base : int;
      w_size : int;
      w_entries : entry array;           (* excluding the root *)
      w_level0 : (int * int) array;      (* (path_id, slot), sorted by id *)
    }

type t = {
  src : string;
  objects : obj_repr array;
  shared : (string * int) array option;  (* fixed-schema shared Level 0, sorted *)
  all_paths : string list;
  path_ids : (string, int) Hashtbl.t;    (* interned path names *)
  path_names : string array;
}

let source t = t.src
let object_count t = Array.length t.objects
let is_fixed_schema t = t.shared <> None

let fail pos fmt = Perror.parse_error ~what:"json-index" ~pos fmt

let kind_code = function
  | Kobj -> 0
  | Karr -> 1
  | Kstr -> 2
  | Kint -> 3
  | Kfloat -> 4
  | Kbool -> 5
  | Knull -> 6

let kind_of_code = function
  | 0 -> Kobj
  | 1 -> Karr
  | 2 -> Kstr
  | 3 -> Kint
  | 4 -> Kfloat
  | 5 -> Kbool
  | _ -> Knull

(* --- raw scanning ------------------------------------------------------- *)

let skip_string src pos =
  (* pos at opening quote; returns position after closing quote *)
  let n = String.length src in
  let rec go i =
    if i >= n then fail i "unterminated string"
    else
      match src.[i] with
      | '\\' -> go (i + 2)
      | '"' -> i + 1
      | _ -> go (i + 1)
  in
  go (pos + 1)

let num_kind src start stop =
  let rec go i =
    if i >= stop then Kint
    else match src.[i] with '.' | 'e' | 'E' -> Kfloat | _ -> go (i + 1)
  in
  go start

(* Containers are skipped by a flat depth-counting automaton: this loop is
   the floor of every unnest over raw JSON, so it avoids per-value calls.
   [pos] at the opening bracket; returns the position after the matching
   closing one. Inputs reaching this point were validated at build time. *)
let skip_container src pos =
  let n = String.length src in
  let i = ref pos and depth = ref 0 and fin = ref (-1) in
  while !fin < 0 do
    if !i >= n then fail !i "unterminated container";
    (match String.unsafe_get src !i with
    | '{' | '[' -> incr depth
    | '}' | ']' ->
      decr depth;
      if !depth = 0 then fin := !i + 1
    | '"' -> i := skip_string src !i - 1
    | _ -> ());
    incr i
  done;
  !fin

let skip_value src pos =
  let pos = Json.skip_ws src pos in
  let n = String.length src in
  if pos >= n then fail pos "unexpected end of input";
  match src.[pos] with
  | '"' -> skip_string src pos
  | '{' | '[' -> skip_container src pos
  | 'n' | 't' -> pos + 4
  | 'f' -> pos + 5
  | '-' | '0' .. '9' ->
    let rec go i =
      if i < n && (match src.[i] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      then go (i + 1)
      else i
    in
    go pos
  | c -> fail pos "unexpected character %C" c

(* --- indexing one object ------------------------------------------------ *)

(* Walk the object at [pos], registering entries for every field path
   reachable through nested objects. Returns (entries_rev, level0_rev,
   next_entry_id, end_pos). *)
let index_object src pos =
  let entries = ref [] and level0 = ref [] and next_id = ref 0 in
  let add_entry e =
    entries := e :: !entries;
    incr next_id;
    !next_id - 1
  in
  let rec walk_obj prefix pos =
    (* pos at '{'; registers the fields; returns end position. *)
    let n = String.length src in
    let rec members i =
      let i = Json.skip_ws src i in
      if i >= n then fail i "unterminated object"
      else if src.[i] = '}' then i + 1
      else begin
        let name, after_name = Json.parse_string_lit src i in
        let i = Json.skip_ws src after_name in
        if i >= n || src.[i] <> ':' then fail i "expected ':'";
        let vstart = Json.skip_ws src (i + 1) in
        if vstart >= n then fail vstart "unexpected end of input";
        let path = if prefix = "" then name else prefix ^ "." ^ name in
        let vend =
          match src.[vstart] with
          | '{' ->
            let vend = skip_container src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = Kobj } in
            level0 := (path, id) :: !level0;
            (* Recurse to register nested paths ("register nested records in
               Level 0", Fig. 4: pointer to c.d.d1). *)
            let _end2 = walk_obj path vstart in
            vend
          | '[' ->
            let vend = skip_container src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = Karr } in
            level0 := (path, id) :: !level0;
            vend
          | '"' ->
            let vend = skip_string src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = Kstr } in
            level0 := (path, id) :: !level0;
            vend
          | 't' | 'f' ->
            let vend = skip_value src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = Kbool } in
            level0 := (path, id) :: !level0;
            vend
          | 'n' ->
            let vend = skip_value src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = Knull } in
            level0 := (path, id) :: !level0;
            vend
          | _ ->
            let vend = skip_value src vstart in
            let id = add_entry { start = vstart; stop = vend; kind = num_kind src vstart vend } in
            level0 := (path, id) :: !level0;
            vend
        in
        let i = Json.skip_ws src vend in
        if i < n && src.[i] = ',' then members (i + 1)
        else if i < n && src.[i] = '}' then i + 1
        else fail i "expected ',' or '}'"
      end
    in
    members (pos + 1)
  in
  if src.[pos] <> '{' then fail pos "dataset element is not an object";
  let stop = walk_obj "" pos in
  (* slots are 1-based above the synthesized root entry *)
  let level0 =
    List.rev_map (fun (p, id) -> (p, id + 1)) !level0
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list
  in
  (List.rev !entries, level0, stop)

let pack_object ~path_id ~keep_level0 ~base ~stop entries level0 : obj_repr =
  (* [entries]/[level0] exclude/are relative to the root (slot 0) *)
  let size = stop - base in
  let n = List.length entries in
  let l0 = if keep_level0 then level0 else [] in
  let fits =
    size < 0x10000
    && n < 255
    && List.for_all (fun (e : entry) -> e.stop - e.start < 0x10000) entries
  in
  if fits then begin
    let nlevel0 = List.length l0 in
    let pdata = Bytes.create ((5 * n) + (3 * nlevel0)) in
    List.iteri
      (fun i (e : entry) ->
        let off = 5 * i in
        Bytes.set_uint16_le pdata off (e.start - base);
        Bytes.set_uint16_le pdata (off + 2) (e.stop - e.start);
        Bytes.set_uint8 pdata (off + 4) (kind_code e.kind))
      entries;
    let sorted =
      List.map (fun (p, slot) -> (path_id p, slot)) l0
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    in
    List.iteri
      (fun i (id, slot) ->
        let off = (5 * n) + (3 * i) in
        Bytes.set_uint16_le pdata off id;
        Bytes.set_uint8 pdata (off + 2) slot)
      sorted;
    Packed { base; size; pdata; nentries = n; nlevel0 }
  end
  else
    Wide
      {
        w_base = base;
        w_size = size;
        w_entries = Array.of_list entries;
        w_level0 =
          List.map (fun (p, slot) -> (path_id p, slot)) l0
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> Array.of_list;
      }

(* Index every object from byte [pos] on, in document order:
   (base, stop, entries, sorted Level 0) per object. *)
let scan_objects src pos =
  let n = String.length src in
  let objects = ref [] in
  let rec go pos =
    let pos = Json.skip_ws src pos in
    if pos < n then begin
      let entries, level0, stop = index_object src pos in
      objects := (pos, stop, entries, level0) :: !objects;
      go stop
    end
  in
  go pos;
  Array.of_list (List.rev !objects)

(* Identical Level-0 keyset and identical document order of slots. *)
let same_level0 a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun (pa, sa) (pb, sb) -> String.equal pa pb && sa = sb) a b

(* Path interning into [path_ids], recording new names (newest first). *)
let intern path_ids names p =
  match Hashtbl.find_opt path_ids p with
  | Some id -> id
  | None ->
    let id = Hashtbl.length path_ids in
    if id > 0xFFFF then
      Perror.unsupported
        "json index: more than 65536 field paths (first overflowing path: %S)" p;
    Hashtbl.replace path_ids p id;
    names := p :: !names;
    id

let pack ~path_id ~fixed (base, stop, entries, l0) =
  (* slots stored 0-based relative to the first non-root entry *)
  let l0 = Array.to_list (Array.map (fun (p, s) -> (p, s - 1)) l0) in
  pack_object ~path_id ~keep_level0:(not fixed) ~base ~stop entries l0

(* The sorted distinct paths of [objs]' Level 0s. *)
let level0_paths objs =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun (_, _, _, l0) -> Array.iter (fun (p, _) -> Hashtbl.replace tbl p ()) l0) objs;
  Hashtbl.fold (fun p () acc -> p :: acc) tbl [] |> List.sort String.compare

let build src =
  let objs = scan_objects src 0 in
  (* Fixed-schema detection: every object shares the first one's Level 0. *)
  let fixed =
    if Array.length objs = 0 then None
    else begin
      let _, _, _, first = objs.(0) in
      if Array.length first > 0 && Array.for_all (fun (_, _, _, l0) -> same_level0 l0 first) objs
      then Some first
      else None
    end
  in
  let path_ids = Hashtbl.create 64 and names = ref [] in
  let all_paths =
    match fixed with
    | Some m -> Array.to_list (Array.map fst m)
    | None -> level0_paths objs
  in
  (* register paths in a deterministic order *)
  List.iter (fun p -> ignore (intern path_ids names p)) all_paths;
  let path_id = intern path_ids names in
  {
    src;
    objects = Array.map (pack ~path_id ~fixed:(fixed <> None)) objs;
    shared = fixed;
    all_paths;
    path_ids;
    path_names = Array.of_list (List.rev !names);
  }

(* --- per-object access ---------------------------------------------------- *)

let object_span t obj =
  match t.objects.(obj) with
  | Packed { base; size; _ } -> (base, base + size)
  | Wide { w_base; w_size; _ } -> (w_base, w_base + w_size)

(* Objects are self-delimiting and the old source parsed whole, so the
   appended objects start after the last indexed one. New paths intern
   after the old ones, into a copy: readers of [t] keep their table. *)
let extend t src =
  let n = Array.length t.objects in
  if n = 0 then Some (build src)
  else begin
    let tail = scan_objects src (snd (object_span t (n - 1))) in
    match t.shared with
    | Some m when not (Array.for_all (fun (_, _, _, l0) -> same_level0 l0 m) tail) -> None
    | shared ->
      let path_ids = Hashtbl.copy t.path_ids and names = ref [] in
      let fresh =
        List.filter (fun p -> not (Hashtbl.mem path_ids p)) (level0_paths tail)
      in
      List.iter (fun p -> ignore (intern path_ids names p)) fresh;
      let path_id = intern path_ids names in
      Some
        {
          src;
          objects =
            Array.append t.objects (Array.map (pack ~path_id ~fixed:(shared <> None)) tail);
          shared;
          all_paths = List.merge String.compare t.all_paths fresh;
          path_ids;
          path_names = Array.append t.path_names (Array.of_list (List.rev !names));
        }
  end

let paths t = t.all_paths

let bsearch (arr : (string * int) array) path =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let k, v = arr.(mid) in
    let c = String.compare path k in
    if c = 0 then begin
      found := v;
      lo := !hi + 1
    end
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  if !found >= 0 then Some !found else None

let slot t path = match t.shared with Some m -> bsearch m path | None -> None

(* Level-0 lookup by interned path id, over the packed or wide layout;
   [-1] when the object lacks the field — the option-free form the
   per-tuple hot path uses. *)
let slot_by_id t ~obj ~id =
  match t.objects.(obj) with
  | Packed p ->
    let base = 5 * p.nentries in
    let lo = ref 0 and hi = ref (p.nlevel0 - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let k = Bytes.get_uint16_le p.pdata (base + (3 * mid)) in
      if k = id then begin
        found := Bytes.get_uint8 p.pdata (base + (3 * mid) + 2) + 1;
        lo := !hi + 1
      end
      else if id < k then hi := mid - 1
      else lo := mid + 1
    done;
    !found
  | Wide w ->
    let lo = ref 0 and hi = ref (Array.length w.w_level0 - 1) and found = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let k, s = w.w_level0.(mid) in
      if k = id then begin
        found := s + 1;
        lo := !hi + 1
      end
      else if id < k then hi := mid - 1
      else lo := mid + 1
    done;
    !found

let path_id t path = Hashtbl.find_opt t.path_ids path

(* --- allocation-free span access ----------------------------------------- *)

type span = {
  mutable sp_start : int;
  mutable sp_stop : int;
  mutable sp_kind : kind;
}

let make_span () = { sp_start = 0; sp_stop = 0; sp_kind = Knull }

let entry_span t ~obj ~slot sp =
  match t.objects.(obj) with
  | Packed p ->
    if slot = 0 then begin
      sp.sp_start <- p.base;
      sp.sp_stop <- p.base + p.size;
      sp.sp_kind <- Kobj
    end
    else begin
      let off = 5 * (slot - 1) in
      let rel = Bytes.get_uint16_le p.pdata off in
      let len = Bytes.get_uint16_le p.pdata (off + 2) in
      sp.sp_start <- p.base + rel;
      sp.sp_stop <- p.base + rel + len;
      sp.sp_kind <- kind_of_code (Bytes.get_uint8 p.pdata (off + 4))
    end
  | Wide w ->
    if slot = 0 then begin
      sp.sp_start <- w.w_base;
      sp.sp_stop <- w.w_base + w.w_size;
      sp.sp_kind <- Kobj
    end
    else begin
      let e = w.w_entries.(slot - 1) in
      sp.sp_start <- e.start;
      sp.sp_stop <- e.stop;
      sp.sp_kind <- e.kind
    end

(* [span_at t ~start ~stop sp] loads an un-indexed value span (an array
   element, an element's field) into [sp], reading its kind off the bytes. *)
let span_at t ~start ~stop sp =
  let src = t.src in
  sp.sp_start <- start;
  sp.sp_stop <- stop;
  sp.sp_kind <-
    (match src.[start] with
    | '{' -> Kobj
    | '[' -> Karr
    | '"' -> Kstr
    | 't' | 'f' -> Kbool
    | 'n' -> Knull
    | _ -> num_kind src start stop)

(* --- span decoding ------------------------------------------------------ *)

let span_int t sp = Numparse.int_span t.src ~start:sp.sp_start ~stop:sp.sp_stop

let span_float t sp =
  Numparse.float_span t.src ~start:sp.sp_start ~stop:sp.sp_stop

let span_bool t sp = t.src.[sp.sp_start] = 't'

let span_string t sp =
  (* The span includes the quotes; decode escapes only if present. *)
  let src = t.src and raw_start = sp.sp_start + 1 and raw_stop = sp.sp_stop - 1 in
  let rec plain i = i >= raw_stop || (src.[i] <> '\\' && plain (i + 1)) in
  if plain raw_start then String.sub src raw_start (raw_stop - raw_start)
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

(* Allocation-free element iteration for the Unnest hot path: [f] receives
   each element's span; no records or lists are built. *)
let iter_array_spans t sp ~f =
  let src = t.src in
  let stop = sp.sp_stop - 1 in
  let rec go i =
    let i = Json.skip_ws src i in
    if i < stop then
      if src.[i] = ',' then go (i + 1)
      else begin
        let vend = skip_value src i in
        f ~start:i ~stop:vend;
        go vend
      end
  in
  go (sp.sp_start + 1)

(* The member walk every un-indexed object read shares: for each member of
   the object at [start] (up to [stop]), [f qstart vstart vend] gets the
   name's opening quote and the value span, and answers whether to go on. *)
let walk_members src ~start ~stop f =
  let rec members i =
    let i = Json.skip_ws src i in
    if i < stop && src.[i] <> '}' then begin
      let j = Json.skip_ws src (skip_string src i) in
      if j >= stop || src.[j] <> ':' then fail j "expected ':'";
      let vstart = Json.skip_ws src (j + 1) in
      let vend = skip_value src vstart in
      if f i vstart vend then begin
        let k = Json.skip_ws src vend in
        if k < stop && src.[k] = ',' then members (k + 1)
      end
    end
  in
  members (start + 1)

(* Does the name whose opening quote is at [qstart] equal [name]? Compared
   against the raw bytes; an escaped name falls back to the decoder. *)
let name_matches src qstart name =
  let n = String.length name in
  let rec go i j =
    match src.[i] with
    | '\\' -> String.equal (fst (Json.parse_string_lit src qstart)) name
    | '"' -> j = n
    | c -> j < n && Char.equal c name.[j] && go (i + 1) (j + 1)
  in
  go (qstart + 1) 0

let iter_members t sp ~f =
  let src = t.src in
  walk_members src ~start:sp.sp_start ~stop:sp.sp_stop (fun q vstart vend ->
      f (fst (Json.parse_string_lit src q)) ~start:vstart ~stop:vend;
      true)

(* Bounded field extraction for the Unnest code path: walk the members of
   the object span once, filling the value spans of the requested names, and
   stop as soon as all of them are found. [starts.(i) = -1] marks a missing
   field. *)
let scan_span_fields t ~start ~stop ~names ~starts ~stops =
  let src = t.src in
  Array.fill starts 0 (Array.length starts) (-1);
  let remaining = ref (Array.length names) in
  if src.[start] <> '{' then fail start "unnest element is not an object";
  walk_members src ~start ~stop (fun q vstart vend ->
      let rec slot k =
        if k >= Array.length names then -1
        else if name_matches src q names.(k) then k
        else slot (k + 1)
      in
      let k = slot 0 in
      if k >= 0 && starts.(k) < 0 then begin
        starts.(k) <- vstart;
        stops.(k) <- vend;
        decr remaining
      end;
      !remaining > 0)

(* Scan the (un-indexed) object at [start,stop) for a pre-split dotted
   path, writing the value span of the final segment into the scratch
   [sp]; intermediate object spans travel through [sp] itself. *)
let find_parts_span t ~start ~stop ~parts sp =
  let src = t.src in
  let find_field ostart ostop name =
    let found = ref false in
    if src.[ostart] = '{' then
      walk_members src ~start:ostart ~stop:ostop (fun q vstart vend ->
          if name_matches src q name then begin
            span_at t ~start:vstart ~stop:vend sp;
            found := true
          end;
          not !found);
    !found
  in
  let rec follow ostart ostop = function
    | [] -> false
    | name :: rest ->
      find_field ostart ostop name && (rest = [] || follow sp.sp_start sp.sp_stop rest)
  in
  follow start stop parts

let byte_size t =
  let per_obj =
    Array.fold_left
      (fun acc o ->
        match o with
        | Packed p -> acc + 16 + Bytes.length p.pdata
        | Wide w -> acc + 16 + (24 * Array.length w.w_entries) + (16 * Array.length w.w_level0))
      0 t.objects
  in
  let interned =
    Array.fold_left (fun acc p -> acc + String.length p + 16) 0 t.path_names
  in
  let shared =
    match t.shared with
    | Some m -> Array.fold_left (fun acc (p, _) -> acc + String.length p + 8) 0 m
    | None -> 0
  in
  per_obj + interned + shared
