open Proteus_model
module Csv = Proteus_format.Csv
module Csv_index = Proteus_format.Csv_index

let make ~config ~schema ~index ~src =
  let row = ref 0 in
  let fields = Schema.fields schema in
  (* Resolve everything per-field once: index position, span fetch, typed
     parser. The per-tuple work is just "span + parse". *)
  let accessor (f : Schema.field) fidx : Access.t =
    (* [read parse] parses the field at the cursor row; [reader parse]
       adds the batch lane, which parses at explicit rows, only the
       selected lanes. Both locate the field through the index's
       int-returning ends, so a read allocates nothing beyond its parsed
       value. *)
    let read parse () =
      let s = Csv_index.field_start index ~row:!row ~field:fidx in
      parse s (Csv_index.field_stop index ~row:!row ~field:fidx s)
    in
    let reader parse : _ Access.reader =
      {
        get = read parse;
        fill =
          Some
            (fun base out ~sel ~n ->
              for i = 0 to n - 1 do
                let j = sel.(i) in
                let row = base + j in
                let s = Csv_index.field_start index ~row ~field:fidx in
                out.(j) <- parse s (Csv_index.field_stop index ~row ~field:fidx s)
              done);
      }
    in
    (* a nullable field reads the empty span as null, whatever its type *)
    let null =
      match f.ty with Ptype.Option _ -> Some (read (fun s e -> (s : int) >= e)) | _ -> None
    in
    Access.prim ?null
      (match Ptype.unwrap_option f.ty with
      | Ptype.Int -> Access.Int (reader (fun s e -> Csv.parse_int src ~start:s ~stop:e))
      | Ptype.Date ->
        Access.Date
          (reader (fun s e ->
               if e - s = 10 && src.[s + 4] = '-' then Date_util.of_span src ~start:s ~stop:e
               else Csv.parse_int src ~start:s ~stop:e))
      | Ptype.Float -> Access.Float (reader (fun s e -> Csv.parse_float src ~start:s ~stop:e))
      | Ptype.Bool -> Access.Bool (reader (fun s e -> Csv.parse_bool src ~start:s ~stop:e))
      | Ptype.String -> Access.Str (reader (fun s e -> Csv.parse_string src ~start:s ~stop:e))
      | other -> Perror.type_error "CSV field %s of non-primitive type %a" f.name Ptype.pp other)
  in
  let accessors =
    List.mapi (fun i (f : Schema.field) -> (f.name, accessor f i)) fields
  in
  let field path =
    match List.assoc_opt path accessors with
    | Some a -> a
    | None -> Perror.plan_error "CSV dataset has no field %s" path
  in
  let whole () =
    Value.record (List.map (fun (name, a) -> (name, a.Access.get_val ())) accessors)
  in
  ignore config;
  (* Fixed-width files are uniform by construction; otherwise check the
     current row's arity against the file's nominal arity, so ragged rows
     (fewer OR extra fields) surface as positioned Parse_errors under the
     error policies instead of being silently mis-read. *)
  let validate =
    if Csv_index.is_fixed_width index then None
    else
      let expected = Csv_index.arity index in
      Some
        (fun () ->
          let nf = Csv_index.row_arity index !row in
          if nf <> expected then begin
            let s, _ = Csv_index.row_span index !row in
            Perror.parse_error ~what:"csv" ~pos:s
              "row has %d fields, expected %d" nf expected
          end)
  in
  {
    Source.element = Schema.to_type schema;
    count = Csv_index.row_count index;
    seek = (fun i -> row := i);
    field;
    whole;
    unnest = (fun _ -> None);
    validate;
  }
