open Proteus_model
open Proteus_storage

let of_rowpage page =
  let schema = Rowpage.schema page in
  let row = ref 0 in
  let accessor idx (f : Schema.field) : Access.t =
    let off = Schema.field_offset schema f.name in
    let null =
      match f.ty with
      | Ptype.Option _ -> Some (fun () -> Rowpage.is_null page ~row:!row ~field:idx)
      | _ -> None
    in
    (* the getter reads at the cursor; the fill addresses rows directly by
       OID, with no cursor motion *)
    let fill at : _ Access.fill option =
      Some
        (fun base out ~sel ~n ->
          for i = 0 to n - 1 do
            let j = sel.(i) in
            out.(j) <- at (base + j)
          done)
    in
    Access.prim ?null
      (match Ptype.unwrap_option f.ty with
      | Ptype.Int ->
        Access.Int
          { get = (fun () -> Rowpage.get_int page ~row:!row ~off);
            fill = fill (fun row -> Rowpage.get_int page ~row ~off) }
      | Ptype.Date ->
        Access.Date
          { get = (fun () -> Rowpage.get_int page ~row:!row ~off);
            fill = fill (fun row -> Rowpage.get_int page ~row ~off) }
      | Ptype.Float ->
        Access.Float
          { get = (fun () -> Rowpage.get_float page ~row:!row ~off);
            fill = fill (fun row -> Rowpage.get_float page ~row ~off) }
      | Ptype.Bool ->
        Access.Bool
          { get = (fun () -> Rowpage.get_bool page ~row:!row ~off);
            fill = fill (fun row -> Rowpage.get_bool page ~row ~off) }
      | Ptype.String ->
        Access.Str
          { get = (fun () -> Rowpage.get_string page ~row:!row ~off);
            fill = fill (fun row -> Rowpage.get_string page ~row ~off) }
      | other ->
        Perror.type_error "binary row field %s of non-primitive type %a" f.name Ptype.pp
          other)
  in
  let accessors = List.mapi (fun i f -> (f.Schema.name, accessor i f)) (Schema.fields schema) in
  let field path =
    match List.assoc_opt path accessors with
    | Some a -> a
    | None -> Perror.plan_error "binary row dataset has no field %s" path
  in
  {
    Source.element = Schema.to_type schema;
    count = Rowpage.count page;
    seek = (fun i -> row := i);
    field;
    whole = (fun () -> Rowpage.get_record page ~row:!row);
    unnest = (fun _ -> None);
    validate = None;
  }

let of_columns ~element cols =
  let count = match cols with [] -> 0 | (_, c) :: _ -> Column.length c in
  List.iter
    (fun (path, c) ->
      if Column.length c <> count then
        Perror.plan_error "column %s length %d <> %d" path (Column.length c) count)
    cols;
  let cur = ref 0 in
  let accessors =
    List.map
      (fun (path, c) ->
        let ty = try Source.field_type element path with Perror.Plan_error _ -> Ptype.Int in
        (path, Access.of_column c ~cur ty))
      cols
  in
  let field path =
    match List.assoc_opt path accessors with
    | Some a -> a
    | None -> Perror.plan_error "column set has no field %s" path
  in
  let whole () =
    Value.record (List.map (fun (path, a) -> (path, a.Access.get_val ())) accessors)
  in
  {
    Source.element;
    count;
    seek = (fun i -> cur := i);
    field;
    whole;
    unnest = (fun _ -> None);
    validate = None;
  }
