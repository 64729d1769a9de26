open Proteus_model

type unnest_spec = {
  u_elem_ty : Ptype.t;
  u_prepare : string list -> unit;
  u_iter : on_elem:(unit -> unit) -> unit;
  u_field : string -> Access.t;
  u_value : unit -> Value.t;
}

type t = {
  element : Ptype.t;
  count : int;
  seek : int -> unit;
  field : string -> Access.t;
  whole : unit -> Value.t;
  unnest : string -> unnest_spec option;
  validate : (unit -> unit) option;
}

let run_range t ~lo ~hi ~on_tuple =
  for i = lo to hi - 1 do
    t.seek i;
    on_tuple ()
  done

let run_range_batches _t ~lo ~hi ~batch ~on_batch =
  let batch = if batch <= 0 then 1 else batch in
  let base = ref lo in
  while !base < hi do
    let len = min batch (hi - !base) in
    on_batch ~base:!base ~len;
    base := !base + len
  done

let field_type element path =
  let parts = String.split_on_char '.' path in
  let rec go ty parts nullable =
    match parts with
    | [] -> if nullable then Ptype.Option (Ptype.unwrap_option ty) else ty
    | name :: rest -> (
      let nullable = nullable || (match ty with Ptype.Option _ -> true | _ -> false) in
      match Ptype.unwrap_option ty with
      | Ptype.Record fields -> (
        match List.assoc_opt name fields with
        | Some fty -> go fty rest nullable
        | None -> Perror.plan_error "no field %s reachable via path %s" name path)
      | other -> Perror.plan_error "path %s traverses non-record %a" path Ptype.pp other)
  in
  go element parts false
