open Proteus_model

type field_stats = {
  min : Value.t;
  max : Value.t;
  nonnull : int;
  distinct_estimate : int;
}

let sample_cap = 1024

(* The capped distinct sample of a numeric field: an open-addressing set
   of unboxed keys (linear probing, a power-of-two table at most half
   full, so at most 2 * [sample_cap] slots). Equality is each type's
   [compare = 0], exactly the Value-keyed table's: all NaNs are one key,
   and so are 0.0 and -0.0. *)
let mix x =
  let x = x lxor (x lsr 32) in
  let h = x * 0x9E3779B97F4A7C1 in
  h lxor (h lsr 29)

module Iset = struct
  type t = { mutable keys : int array; mutable used : Bytes.t; mutable size : int }

  let create () = { keys = Array.make 16 0; used = Bytes.make 16 '\000'; size = 0 }

  let rec add t (x : int) =
    let mask = Array.length t.keys - 1 in
    let i = ref (mix x land mask) in
    while Bytes.unsafe_get t.used !i <> '\000' && Array.unsafe_get t.keys !i <> x do
      i := (!i + 1) land mask
    done;
    if Bytes.unsafe_get t.used !i = '\000' then
      if 2 * (t.size + 1) > mask + 1 then begin
        let keys = t.keys and used = t.used in
        t.keys <- Array.make (2 * (mask + 1)) 0;
        t.used <- Bytes.make (2 * (mask + 1)) '\000';
        t.size <- 0;
        Array.iteri (fun j k -> if Bytes.get used j <> '\000' then add t k) keys;
        add t x
      end
      else begin
        Array.unsafe_set t.keys !i x;
        Bytes.unsafe_set t.used !i '\001';
        t.size <- t.size + 1
      end

  let iter f t = Array.iteri (fun j k -> if Bytes.get t.used j <> '\000' then f k) t.keys
end

(* The float set reads its key out of an array: a float argument would be
   boxed at every call of a function that is not inlined. *)
module Fset = struct
  type t = { mutable keys : float array; mutable used : Bytes.t; mutable size : int }

  let create () = { keys = Array.make 16 0.; used = Bytes.make 16 '\000'; size = 0 }

  (* [add t a j] adds [a.(j)] *)
  let rec add t (a : float array) j =
    let x = Array.unsafe_get a j in
    let mask = Array.length t.keys - 1 in
    let h =
      if x <> x then 0 else if x = 0. then 1 else mix (Int64.to_int (Int64.bits_of_float x))
    in
    let i = ref (h land mask) in
    while
      Bytes.unsafe_get t.used !i <> '\000'
      &&
      let k = Array.unsafe_get t.keys !i in
      not (k = x || (k <> k && x <> x))
    do
      i := (!i + 1) land mask
    done;
    if Bytes.unsafe_get t.used !i = '\000' then
      if 2 * (t.size + 1) > mask + 1 then begin
        let keys = t.keys and used = t.used in
        t.keys <- Array.make (2 * (mask + 1)) 0.;
        t.used <- Bytes.make (2 * (mask + 1)) '\000';
        t.size <- 0;
        for j = 0 to mask do
          if Bytes.get used j <> '\000' then add t keys j
        done;
        add t a j
      end
      else begin
        Array.unsafe_set t.keys !i x;
        Bytes.unsafe_set t.used !i '\001';
        t.size <- t.size + 1
      end

  let iter f t = Array.iteri (fun j k -> if Bytes.get t.used j <> '\000' then f k) t.keys
end

(* The sample is keyed by what the field yields: int payloads ([date]
   tells Int from Date) and floats key unboxed sets. Any other value, or a
   field whose observations mix kinds (reachable only through the boxed
   [observe]), keys a Value table. *)
type sample =
  | Empty
  | Ints of { date : bool; ints : Iset.t }
  | Floats of Fset.t
  | Values of (Value.t, unit) Hashtbl.t

(* A field is known once [fnonnull > 0]; before that [fmin]/[fmax] are
   placeholders. *)
type acc = {
  mutable fmin : Value.t;
  mutable fmax : Value.t;
  mutable fnonnull : int;
  mutable sample : sample;
}

type t = {
  mutable card : int option;
  fields : (string, acc) Hashtbl.t;
  promoted : (string, unit) Hashtbl.t;
      (* paths the cache manager promoted to a richer layout (zone maps /
         dictionaries): costing treats their scans as binary-column reads *)
  rich : (string, unit) Hashtbl.t;
      (* promoted paths that went further — sorted projection or pre-parsed
         slot column: reads are binary-column speed with skipping on top *)
}

let create () =
  {
    card = None;
    fields = Hashtbl.create 8;
    promoted = Hashtbl.create 4;
    rich = Hashtbl.create 4;
  }

let note_promoted t path = Hashtbl.replace t.promoted path ()

let drop_promoted t path =
  Hashtbl.remove t.promoted path;
  Hashtbl.remove t.rich path

let promoted t path = Hashtbl.mem t.promoted path

let any_promoted t = Hashtbl.length t.promoted > 0

let note_rich_layout t path = Hashtbl.replace t.rich path ()

let any_rich_layout t = Hashtbl.length t.rich > 0

let set_cardinality t n = t.card <- Some n

let cardinality t = t.card

let acc t path =
  match Hashtbl.find_opt t.fields path with
  | Some acc -> acc
  | None ->
    let acc = { fmin = Value.Null; fmax = Value.Null; fnonnull = 0; sample = Empty } in
    Hashtbl.replace t.fields path acc;
    acc

(* Fold [n] non-null values whose extremes are [lo] and [hi] (the first
   of each among equals) into the running range, as [n] one-at-a-time
   strict comparisons would. *)
let note_range acc lo hi n =
  if acc.fnonnull = 0 then begin
    acc.fmin <- lo;
    acc.fmax <- hi
  end
  else begin
    if Value.compare lo acc.fmin < 0 then acc.fmin <- lo;
    if Value.compare hi acc.fmax > 0 then acc.fmax <- hi
  end;
  acc.fnonnull <- acc.fnonnull + n

let sample_size acc =
  match acc.sample with
  | Empty -> 0
  | Ints { ints; _ } -> ints.Iset.size
  | Floats f -> f.Fset.size
  | Values v -> Hashtbl.length v

(* The sample as a Value table, converting a typed one in place. *)
let values acc =
  match acc.sample with
  | Values v -> v
  | s ->
    let v = Hashtbl.create 64 in
    (match s with
    | Ints { date; ints } ->
      Iset.iter (fun x -> Hashtbl.replace v (if date then Value.Date x else Value.Int x) ()) ints
    | Floats f -> Fset.iter (fun x -> Hashtbl.replace v (Value.Float x) ()) f
    | Empty | Values _ -> ());
    acc.sample <- Values v;
    v

let sample_value acc v =
  if sample_size acc < sample_cap then Hashtbl.replace (values acc) v ()

let int_sample acc ~date =
  match acc.sample with
  | Ints s when s.date = date -> Some s.ints
  | Empty ->
    let ints = Iset.create () in
    acc.sample <- Ints { date; ints };
    Some ints
  | Ints _ | Floats _ | Values _ -> None

let float_sample acc =
  match acc.sample with
  | Floats f -> Some f
  | Empty ->
    let f = Fset.create () in
    acc.sample <- Floats f;
    Some f
  | Ints _ | Values _ -> None

let observe_ints acc ~date (a : int array) ~sel ~n =
  if n > 0 then begin
    let lo = ref a.(sel.(0)) in
    let hi = ref !lo in
    for i = 1 to n - 1 do
      let v = a.(Array.unsafe_get sel i) in
      if v < !lo then lo := v else if v > !hi then hi := v
    done;
    let box x = if date then Value.Date x else Value.Int x in
    note_range acc (box !lo) (box !hi) n;
    match int_sample acc ~date with
    | Some ints ->
      let i = ref 0 in
      while !i < n && ints.Iset.size < sample_cap do
        Iset.add ints a.(Array.unsafe_get sel !i);
        incr i
      done
    | None ->
      for i = 0 to n - 1 do
        sample_value acc (box a.(sel.(i)))
      done
  end

(* [Float.compare a b < 0] without the external call: NaN sorts first. *)
let flt (a : float) b = a < b || (a <> a && b = b)

let observe_floats acc (a : float array) ~sel ~n =
  if n > 0 then begin
    let lo = ref a.(sel.(0)) in
    let hi = ref !lo in
    for i = 1 to n - 1 do
      let v = a.(Array.unsafe_get sel i) in
      if flt v !lo then lo := v else if flt !hi v then hi := v
    done;
    note_range acc (Value.Float !lo) (Value.Float !hi) n;
    match float_sample acc with
    | Some f ->
      let i = ref 0 in
      while !i < n && f.Fset.size < sample_cap do
        Fset.add f a (Array.unsafe_get sel !i);
        incr i
      done
    | None ->
      for i = 0 to n - 1 do
        sample_value acc (Value.Float a.(sel.(i)))
      done
  end

let one = [| 0 |]

let observe_value acc (v : Value.t) =
  match v with
  | Null -> ()
  | Int x -> observe_ints acc ~date:false [| x |] ~sel:one ~n:1
  | Date x -> observe_ints acc ~date:true [| x |] ~sel:one ~n:1
  | Float x -> observe_floats acc [| x |] ~sel:one ~n:1
  | Bool _ | String _ | Record _ | Coll _ ->
    note_range acc v v 1;
    sample_value acc v

let observe t path (v : Value.t) =
  match v with Null -> () | v -> observe_value (acc t path) v

let field t path =
  match Hashtbl.find_opt t.fields path with
  | Some acc when acc.fnonnull > 0 ->
    let sampled = sample_size acc in
    let distinct =
      (* If the sample never filled up, it saw every distinct value. *)
      if sampled < sample_cap then sampled
      else max sampled (acc.fnonnull / 4)
    in
    Some
      {
        min = acc.fmin;
        max = acc.fmax;
        nonnull = acc.fnonnull;
        distinct_estimate = max 1 distinct;
      }
  | Some _ | None -> None

let default_selectivity = 0.10

let to_float_opt (v : Value.t) =
  match v with
  | Int i | Date i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | String _ | Record _ | Coll _ -> None

let selectivity t path ~op ~value =
  match field t path with
  | None -> default_selectivity
  | Some { min; max; distinct_estimate; _ } -> (
    match op with
    | `Eq -> 1.0 /. float_of_int distinct_estimate
    | (`Lt | `Le | `Gt | `Ge) as op -> (
      match to_float_opt min, to_float_opt max, to_float_opt value with
      | Some lo, Some hi, Some v when hi > lo ->
        let frac = (v -. lo) /. (hi -. lo) in
        let frac = Float.max 0.0 (Float.min 1.0 frac) in
        let f = match op with `Lt | `Le -> frac | `Gt | `Ge -> 1.0 -. frac in
        (* Clamp away from 0/1 so costing never collapses to free/full. *)
        Float.max 0.001 (Float.min 0.999 f)
      | _ -> default_selectivity))

let clear t =
  t.card <- None;
  Hashtbl.reset t.fields;
  Hashtbl.reset t.promoted;
  Hashtbl.reset t.rich

let pp ppf t =
  Fmt.pf ppf "card=%a" Fmt.(option ~none:(any "?") int) t.card;
  Hashtbl.iter
    (fun path acc ->
      if acc.fnonnull > 0 then
        Fmt.pf ppf "; %s in [%a, %a] (%d non-null)" path Value.pp acc.fmin Value.pp
          acc.fmax acc.fnonnull)
    t.fields
