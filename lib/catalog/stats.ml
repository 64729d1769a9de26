open Proteus_model

type field_stats = {
  min : Value.t;
  max : Value.t;
  nonnull : int;
  distinct_estimate : int;
}

type field_acc = {
  mutable fmin : Value.t;
  mutable fmax : Value.t;
  mutable fnonnull : int;
  sample : (Value.t, unit) Hashtbl.t;  (* capped distinct sample *)
}

type t = {
  mutable card : int option;
  fields : (string, field_acc) Hashtbl.t;
  promoted : (string, unit) Hashtbl.t;
      (* paths the cache manager promoted to a richer layout (zone maps /
         dictionaries): costing treats their scans as binary-column reads *)
  rich : (string, unit) Hashtbl.t;
      (* promoted paths that went further — sorted projection or pre-parsed
         slot column: reads are binary-column speed with skipping on top *)
}

let sample_cap = 1024

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

let observe t path v =
  match (v : Value.t) with
  | Null -> ()
  | v ->
    let acc =
      match Hashtbl.find_opt t.fields path with
      | Some acc -> acc
      | None ->
        let acc = { fmin = v; fmax = v; fnonnull = 0; sample = Hashtbl.create 64 } in
        Hashtbl.replace t.fields path acc;
        acc
    in
    if Value.compare v acc.fmin < 0 then acc.fmin <- v;
    if Value.compare v acc.fmax > 0 then acc.fmax <- v;
    acc.fnonnull <- acc.fnonnull + 1;
    if Hashtbl.length acc.sample < sample_cap then Hashtbl.replace acc.sample v ()

let field t path =
  match Hashtbl.find_opt t.fields path with
  | None -> None
  | Some acc ->
    let sampled = Hashtbl.length acc.sample in
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
      Fmt.pf ppf "; %s in [%a, %a] (%d non-null)" path Value.pp acc.fmin Value.pp
        acc.fmax acc.fnonnull)
    t.fields
