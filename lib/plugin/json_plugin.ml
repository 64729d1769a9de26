open Proteus_model
module Ji = Proteus_format.Json_index

let nullable_of_ty ty = match ty with Ptype.Option _ -> true | _ -> false

(* One decoder per declared type. Every read path — scalar accessors,
   batch fills, unnest element fields and boxed values —
   loads a span, then decodes it here. A resolver that finds no field
   leaves a [Knull] span at the enclosing object's byte, so a null and a
   missing value meet one check, which names that byte. *)
let null_error sp ty =
  Perror.parse_error ~what:"json" ~pos:sp.Ji.sp_start "null/missing value where %a expected"
    Ptype.pp ty

let[@inline] present sp ty = if sp.Ji.sp_kind = Ji.Knull then null_error sp ty

let dec_int index sp =
  present sp Ptype.Int;
  Ji.span_int index sp

(* a date is an ISO string or a day count *)
let dec_date index sp =
  present sp Ptype.Date;
  match sp.Ji.sp_kind with
  | Ji.Kstr ->
    Date_util.of_span (Ji.source index) ~start:(sp.Ji.sp_start + 1) ~stop:(sp.Ji.sp_stop - 1)
  | _ -> Ji.span_int index sp

(* a float is a float or an int literal *)
let dec_float index sp =
  present sp Ptype.Float;
  match sp.Ji.sp_kind with
  | Ji.Kint -> float_of_int (Ji.span_int index sp)
  | _ -> Ji.span_float index sp

let dec_bool index sp =
  present sp Ptype.Bool;
  Ji.span_bool index sp

let dec_string index sp =
  present sp Ptype.String;
  Ji.span_string index sp

let span_of index ~start ~stop =
  let sp = Ji.make_span () in
  Ji.span_at index ~start ~stop sp;
  sp

(* Boxed read by declared type: declared leaves go through the decoders
   above (a declared field that is absent, through the same check);
   records and arrays are rebuilt member by member in document order;
   undeclared fields, and values of a shape the type does not describe,
   stay as written. *)
let rec dec_value index ty sp : Value.t =
  match Ptype.unwrap_option ty, sp.Ji.sp_kind with
  | _, Ji.Knull when nullable_of_ty ty -> Value.Null
  | Ptype.Int, _ -> Value.Int (dec_int index sp)
  | Ptype.Date, _ -> Value.Date (dec_date index sp)
  | Ptype.Float, _ -> Value.Float (dec_float index sp)
  | Ptype.Bool, _ -> Value.Bool (dec_bool index sp)
  | Ptype.String, _ -> Value.String (dec_string index sp)
  | Ptype.Record fields, Ji.Kobj ->
    let members = ref [] in
    Ji.iter_members index sp ~f:(fun name ~start ~stop ->
        let v = span_of index ~start ~stop in
        let v =
          match List.assoc_opt name fields with
          | Some fty -> dec_value index fty v
          | None -> Ji.span_value index v
        in
        members := (name, v) :: !members);
    let missing = Ji.make_span () in
    Ji.absent missing ~at:sp.Ji.sp_start;
    List.iter
      (fun (name, fty) ->
        if not (List.mem_assoc name !members) then ignore (dec_value index fty missing))
      fields;
    Value.record (List.rev !members)
  | Ptype.Collection (_, elem_ty), Ji.Karr ->
    let elems = ref [] in
    Ji.iter_array_spans index sp ~f:(fun ~start ~stop ->
        elems := dec_value index elem_ty (span_of index ~start ~stop) :: !elems);
    Value.list_ (List.rev !elems)
  | _ -> Ji.span_value index sp

let make ~element ~index =
  let obj = ref 0 in
  let seek i = obj := i in
  (* A top-level path resolves to its interned id once, at "code
     generation" time; [at o] then loads the field of object [o] into the
     accessor's own scratch span through the object's layout table, so a
     steady-state scan allocates nothing per tuple. Accessors are private
     to one scan_view instance, hence to one domain. *)
  let top path : Ji.span * (int -> unit) =
    let sp = Ji.make_span () in
    let id = Option.value (Ji.path_id index path) ~default:(-1) in
    (sp, fun o -> Ji.field_span index ~obj:o ~id sp)
  in
  (* The one typed accessor over a span and its resolver. [at] says how
     the batch lane reaches the field at explicit OIDs: a top-level path
     loads each row's span with no cursor; an unnest element field is not
     addressable by row. *)
  let accessor ~(ty : Ptype.t) ?at (sp, resolve) : Access.t =
    let null =
      if nullable_of_ty ty then
        Some
          (fun () ->
            resolve ();
            sp.Ji.sp_kind = Ji.Knull)
      else None
    in
    let reader dec get : _ Access.reader =
      let fill =
        Option.map
          (fun at base out ~sel ~n ->
            for i = 0 to n - 1 do
              let j = sel.(i) in
              at (base + j);
              out.(j) <- dec index sp
            done)
          at
      in
      { get; fill }
    in
    (* each getter calls its decoder directly: getters are the per-tuple path *)
    let lane : Access.lane =
      match Ptype.unwrap_option ty with
      | Ptype.Int -> Int (reader dec_int (fun () -> resolve (); dec_int index sp))
      | Ptype.Date -> Date (reader dec_date (fun () -> resolve (); dec_date index sp))
      | Ptype.Float -> Float (reader dec_float (fun () -> resolve (); dec_float index sp))
      | Ptype.Bool -> Bool (reader dec_bool (fun () -> resolve (); dec_bool index sp))
      | Ptype.String -> Str (reader dec_string (fun () -> resolve (); dec_string index sp))
      | Ptype.Record _ | Ptype.Collection _ -> Boxed
      | Ptype.Option _ -> assert false
    in
    match lane with
    | Boxed -> Access.boxed ty (fun () -> resolve (); dec_value index ty sp)
    | lane -> Access.prim ?null lane
  in
  let accessor_cache : (string, Access.t) Hashtbl.t = Hashtbl.create 8 in
  let field path =
    match Hashtbl.find_opt accessor_cache path with
    | Some a -> a
    | None ->
      let sp, at = top path in
      let a = accessor ~ty:(Source.field_type element path) ~at (sp, fun () -> at !obj) in
      Hashtbl.replace accessor_cache path a;
      a
  in
  let root = Ji.make_span () in
  let whole () =
    Ji.entry_span index ~obj:!obj ~slot:0 root;
    dec_value index element root
  in
  let unnest path =
    match Ptype.unwrap_option (Source.field_type element path) with
    | Ptype.Collection (_, elem_ty) ->
      let arr, arr_at = top path in
      (* current nested element span, valid during u_iter callbacks *)
      let elem = Ji.make_span () in
      (* Fused extraction (u_prepare): the element-boundary walk also
         records the value spans of the fields the query reads, so each
         element is scanned exactly once. *)
      let wanted = ref [||] in
      let slot_starts = ref [||] and slot_stops = ref [||] in
      let u_prepare paths =
        let simple =
          List.filter
            (fun f ->
              (not (String.contains f '.'))
              && Ptype.is_primitive
                   (Ptype.unwrap_option (Source.field_type elem_ty f)))
            paths
        in
        wanted := Array.of_list simple;
        slot_starts := Array.make (Array.length !wanted) (-1);
        slot_stops := Array.make (Array.length !wanted) (-1)
      in
      let elem_scanned = ref false in
      let u_iter ~on_elem =
        arr_at !obj;
        if arr.Ji.sp_kind = Ji.Karr then
          Ji.iter_array_spans index arr ~f:(fun ~start ~stop ->
              Ji.span_at index ~start ~stop elem;
              elem_scanned := false;
              on_elem ())
      in
      (* one early-exit member walk per element, run on the first prepared
         field access and shared by all of them *)
      let ensure_scanned () =
        if not !elem_scanned then begin
          Ji.scan_span_fields index ~start:elem.Ji.sp_start ~stop:elem.Ji.sp_stop
            ~names:!wanted ~starts:!slot_starts ~stops:!slot_stops;
          elem_scanned := true
        end
      in
      let slot_of f =
        let rec go k =
          if k >= Array.length !wanted then None
          else if String.equal !wanted.(k) f then Some k
          else go (k + 1)
        in
        go 0
      in
      let elem_field_cache : (string, Access.t) Hashtbl.t = Hashtbl.create 4 in
      let u_field f =
        match Hashtbl.find_opt elem_field_cache f with
        | Some a -> a
        | None ->
          let sp = Ji.make_span () in
          let resolve =
            match slot_of f with
            | Some k ->
              (* a fused field: the shared per-element scan's slot *)
              let starts = !slot_starts and stops = !slot_stops in
              fun () ->
                ensure_scanned ();
                if starts.(k) < 0 then Ji.absent sp ~at:elem.Ji.sp_start
                else Ji.span_at index ~start:starts.(k) ~stop:stops.(k) sp
            | None ->
              (* un-fused (dotted) fallback: scan the element for the path *)
              let parts = String.split_on_char '.' f in
              fun () ->
                if
                  not
                    (Ji.find_parts_span index ~start:elem.Ji.sp_start ~stop:elem.Ji.sp_stop
                       ~parts sp)
                then Ji.absent sp ~at:elem.Ji.sp_start
          in
          let a = accessor ~ty:(Source.field_type elem_ty f) (sp, resolve) in
          Hashtbl.replace elem_field_cache f a;
          a
      in
      let u_value () = dec_value index elem_ty elem in
      Some { Source.u_elem_ty = elem_ty; u_prepare; u_iter; u_field; u_value }
    | _ -> None
    | exception Perror.Plan_error _ -> None
  in
  {
    Source.element;
    count = Ji.object_count index;
    seek;
    field;
    whole;
    unnest;
    validate = None;
  }
