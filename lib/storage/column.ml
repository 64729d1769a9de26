open Proteus_model

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strings of string array
  (* dictionary-encoded strings: codes index into the (deduplicated,
     first-seen-order) dictionary — the promoted layout for hot string
     columns, enabling code-comparison and per-entry LIKE kernels *)
  | Dicts of int array * string array
  | Nullmask of bool array * t

let rec length = function
  | Ints a -> Array.length a
  | Floats a -> Array.length a
  | Bools a -> Array.length a
  | Strings a -> Array.length a
  | Dicts (codes, _) -> Array.length codes
  | Nullmask (_, c) -> length c

let rec get c i : Value.t =
  match c with
  | Ints a -> Int a.(i)
  | Floats a -> Float a.(i)
  | Bools a -> Bool a.(i)
  | Strings a -> String a.(i)
  | Dicts (codes, dict) -> String dict.(codes.(i))
  | Nullmask (mask, inner) -> if mask.(i) then Null else get inner i

(* First-seen-order dictionary encoding: the decoded column is
   string-for-string identical to the input. *)
let dict_encode (a : string array) : int array * string array =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 256 in
  let dict = ref [] and ndict = ref 0 in
  let codes =
    Array.map
      (fun s ->
        match Hashtbl.find_opt tbl s with
        | Some c -> c
        | None ->
          let c = !ndict in
          Hashtbl.add tbl s c;
          dict := s :: !dict;
          incr ndict;
          c)
      a
  in
  (codes, Array.of_list (List.rev !dict))

(* Promote a string column to its dictionary layout (identity on anything
   already promoted; None for non-string columns). *)
let promote_strings (c : t) : t option =
  match c with
  | Strings a ->
    let codes, dict = dict_encode a in
    Some (Dicts (codes, dict))
  | Nullmask (mask, Strings a) ->
    let codes, dict = dict_encode a in
    Some (Nullmask (mask, Dicts (codes, dict)))
  | Dicts _ | Nullmask (_, Dicts _) -> Some c
  | Ints _ | Floats _ | Bools _ | Nullmask _ -> None

(* [append a b]: [a]'s rows then [b]'s, in [a]'s layout. A dictionary
   column takes plain strings and extends its dictionary in first-seen
   order, so the result is what [promote_strings] makes of the
   concatenation; a null mask is kept when either side has one. *)
let append (a : t) (b : t) : t =
  let split = function Nullmask (m, c) -> (Some m, c) | c -> (None, c) in
  let ma, ca = split a and mb, cb = split b in
  let la = length ca and lb = length cb in
  if lb = 0 then a
  else begin
    let data =
      match ca, cb with
      | Ints x, Ints y -> Ints (Array.append x y)
      | Floats x, Floats y -> Floats (Array.append x y)
      | Bools x, Bools y -> Bools (Array.append x y)
      | Strings x, Strings y -> Strings (Array.append x y)
      | Dicts (codes, dict), Strings y ->
        let tbl = Hashtbl.create (2 * Array.length dict) in
        Array.iteri (fun c s -> Hashtbl.replace tbl s c) dict;
        let extra = ref [] and next = ref (Array.length dict) in
        let ycodes =
          Array.map
            (fun s ->
              match Hashtbl.find_opt tbl s with
              | Some c -> c
              | None ->
                let c = !next in
                Hashtbl.add tbl s c;
                extra := s :: !extra;
                incr next;
                c)
            y
        in
        Dicts (Array.append codes ycodes, Array.append dict (Array.of_list (List.rev !extra)))
      | _ -> invalid_arg "Column.append: layouts differ"
    in
    let mask m n = match m with Some m -> m | None -> Array.make n false in
    match ma, mb with
    | None, None -> data
    | _ -> Nullmask (Array.append (mask ma la) (mask mb lb), data)
  end

module Builder = struct
  type column = t

  type payload =
    | Bints of { mutable a : int array; mutable n : int }
    | Bfloats of { mutable a : float array; mutable n : int }
    | Bbools of { mutable a : bool array; mutable n : int }
    | Bstrings of { mutable a : string array; mutable n : int }

  type t = {
    payload : payload;
    mutable nulls : bool array;       (* grown lazily alongside payload *)
    mutable has_null : bool;
  }

  let initial = 64

  let create (ty : Ptype.t) =
    let payload =
      match Ptype.unwrap_option ty with
      | Ptype.Int | Ptype.Date -> Bints { a = Array.make initial 0; n = 0 }
      | Ptype.Float -> Bfloats { a = Array.make initial 0.; n = 0 }
      | Ptype.Bool -> Bbools { a = Array.make initial false; n = 0 }
      | Ptype.String -> Bstrings { a = Array.make initial ""; n = 0 }
      | t -> Perror.type_error "Column.Builder.create: non-primitive type %a" Ptype.pp t
    in
    { payload; nulls = Array.make initial false; has_null = false }

  let payload_len = function
    | Bints { n; _ } | Bfloats { n; _ } | Bbools { n; _ } | Bstrings { n; _ } -> n

  let length t = payload_len t.payload

  let grow_nulls t n =
    if n > Array.length t.nulls then begin
      let bigger = Array.make (max (n * 2) initial) false in
      Array.blit t.nulls 0 bigger 0 (Array.length t.nulls);
      t.nulls <- bigger
    end

  let add_int t v =
    match t.payload with
    | Bints b ->
      if b.n >= Array.length b.a then begin
        let bigger = Array.make (max (b.n * 2) initial) 0 in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- v;
      b.n <- b.n + 1;
      grow_nulls t b.n
    | Bfloats _ | Bbools _ | Bstrings _ -> Perror.type_error "Builder.add_int on non-int column"

  let add_float t v =
    match t.payload with
    | Bfloats b ->
      if b.n >= Array.length b.a then begin
        let bigger = Array.make (max (b.n * 2) initial) 0. in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- v;
      b.n <- b.n + 1;
      grow_nulls t b.n
    | Bints _ | Bbools _ | Bstrings _ -> Perror.type_error "Builder.add_float on non-float column"

  let add_bool t v =
    match t.payload with
    | Bbools b ->
      if b.n >= Array.length b.a then begin
        let bigger = Array.make (max (b.n * 2) initial) false in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- v;
      b.n <- b.n + 1;
      grow_nulls t b.n
    | Bints _ | Bfloats _ | Bstrings _ -> Perror.type_error "Builder.add_bool on non-bool column"

  let add_string t v =
    match t.payload with
    | Bstrings b ->
      if b.n >= Array.length b.a then begin
        let bigger = Array.make (max (b.n * 2) initial) "" in
        Array.blit b.a 0 bigger 0 b.n;
        b.a <- bigger
      end;
      b.a.(b.n) <- v;
      b.n <- b.n + 1;
      grow_nulls t b.n
    | Bints _ | Bfloats _ | Bbools _ -> Perror.type_error "Builder.add_string on non-string column"

  let add_null t =
    (* A null occupies a payload slot (with a dummy value) plus a mask bit. *)
    (match t.payload with
    | Bints _ -> add_int t 0
    | Bfloats _ -> add_float t 0.
    | Bbools _ -> add_bool t false
    | Bstrings _ -> add_string t "");
    t.nulls.(length t - 1) <- true;
    t.has_null <- true

  let add_value t (v : Value.t) =
    match v with
    | Null -> add_null t
    | Int i | Date i -> add_int t i
    | Float f -> add_float t f
    | Bool b -> add_bool t b
    | String s -> add_string t s
    | Record _ | Coll _ ->
      Perror.type_error "Column.Builder.add_value: non-primitive %a" Value.pp v

  let finish t =
    let n = length t in
    let col =
      match t.payload with
      | Bints b -> Ints (Array.sub b.a 0 n)
      | Bfloats b -> Floats (Array.sub b.a 0 n)
      | Bbools b -> Bools (Array.sub b.a 0 n)
      | Bstrings b -> Strings (Array.sub b.a 0 n)
    in
    if t.has_null then Nullmask (Array.sub t.nulls 0 n, col) else col

  let concat (ty : Ptype.t) (segs : t list) =
    (* Segment assembly for parallel materialization: one exact-size
       allocation, one [Array.blit] per segment, in list order — the result
       equals replaying every add on a single builder ([finish] of the
       row-order concatenation). *)
    let n = List.fold_left (fun acc s -> acc + length s) 0 segs in
    let blit_ints () =
      let out = Array.make n 0 in
      let at = ref 0 in
      List.iter
        (fun s ->
          match s.payload with
          | Bints b ->
            Array.blit b.a 0 out !at b.n;
            at := !at + b.n
          | Bfloats _ | Bbools _ | Bstrings _ ->
            Perror.type_error "Column.Builder.concat: segment type mismatch")
        segs;
      Ints out
    in
    let blit_floats () =
      let out = Array.make n 0. in
      let at = ref 0 in
      List.iter
        (fun s ->
          match s.payload with
          | Bfloats b ->
            Array.blit b.a 0 out !at b.n;
            at := !at + b.n
          | Bints _ | Bbools _ | Bstrings _ ->
            Perror.type_error "Column.Builder.concat: segment type mismatch")
        segs;
      Floats out
    in
    let blit_bools () =
      let out = Array.make n false in
      let at = ref 0 in
      List.iter
        (fun s ->
          match s.payload with
          | Bbools b ->
            Array.blit b.a 0 out !at b.n;
            at := !at + b.n
          | Bints _ | Bfloats _ | Bstrings _ ->
            Perror.type_error "Column.Builder.concat: segment type mismatch")
        segs;
      Bools out
    in
    let blit_strings () =
      let out = Array.make n "" in
      let at = ref 0 in
      List.iter
        (fun s ->
          match s.payload with
          | Bstrings b ->
            Array.blit b.a 0 out !at b.n;
            at := !at + b.n
          | Bints _ | Bfloats _ | Bbools _ ->
            Perror.type_error "Column.Builder.concat: segment type mismatch")
        segs;
      Strings out
    in
    let col =
      match Ptype.unwrap_option ty with
      | Ptype.Int | Ptype.Date -> blit_ints ()
      | Ptype.Float -> blit_floats ()
      | Ptype.Bool -> blit_bools ()
      | Ptype.String -> blit_strings ()
      | t -> Perror.type_error "Column.Builder.concat: non-primitive type %a" Ptype.pp t
    in
    if List.exists (fun s -> s.has_null) segs then begin
      let mask = Array.make n false in
      let at = ref 0 in
      List.iter
        (fun s ->
          let ln = length s in
          Array.blit s.nulls 0 mask !at ln;
          at := !at + ln)
        segs;
      Nullmask (mask, col)
    end
    else col
end

let of_values ty vs =
  let b = Builder.create ty in
  List.iter (Builder.add_value b) vs;
  Builder.finish b

let rec byte_size = function
  | Ints a -> 8 * Array.length a
  | Floats a -> 8 * Array.length a
  | Bools a -> Array.length a
  | Strings a -> Array.fold_left (fun acc s -> acc + 16 + String.length s) 0 a
  | Dicts (codes, dict) ->
    (8 * Array.length codes)
    + Array.fold_left (fun acc s -> acc + 16 + String.length s) 0 dict
  | Nullmask (mask, c) -> Array.length mask + byte_size c

let min_max c =
  let n = length c in
  let best = ref None in
  for i = 0 to n - 1 do
    match get c i with
    | Value.Null -> ()
    | v -> (
      match !best with
      | None -> best := Some (v, v)
      | Some (lo, hi) ->
        let lo = if Value.compare v lo < 0 then v else lo in
        let hi = if Value.compare v hi > 0 then v else hi in
        best := Some (lo, hi))
  done;
  !best
