open Proteus_model

type config = { separator : char; has_header : bool }

let default_config = { separator = ','; has_header = false }

let needs_quoting config s =
  let bad c = Char.equal c config.separator || c = '\n' || c = '\r' || c = '"' in
  String.exists bad s

let write_field buf config s =
  if needs_quoting config s then begin
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  end
  else Buffer.add_string buf s

let render_value (v : Value.t) =
  match v with
  | Null -> ""
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Date d -> Date_util.to_string d
  | Float f ->
    (* Compact, not round-trippable: twelve significant digits, so a
       general double reads back rounded. Quarter steps and other short
       decimals read back exactly, and so do the non-finite renderings
       ([nan], [-nan], [inf], [-inf]), which [parse_float] accepts. *)
    Printf.sprintf "%.12g" f
  | String s -> s
  | Record _ | Coll _ -> Perror.type_error "CSV cannot render %a" Value.pp v

(* A trailing separator ends a row without an empty last field, so an
   empty last field is written with one more separator: [2,,] reads back
   as [2] and an empty field, [,] as one empty field, where [2,] and a
   blank line would lose it. *)
let write_row buf config values =
  let n = Array.length values in
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char buf config.separator;
    let s = render_value values.(i) in
    write_field buf config s;
    if i = n - 1 && s = "" then Buffer.add_char buf config.separator
  done;
  Buffer.add_char buf '\n'

let of_records config schema records =
  let names = Schema.field_names schema in
  let buf = Buffer.create 4096 in
  if config.has_header then begin
    List.iteri
      (fun i n ->
        if i > 0 then Buffer.add_char buf config.separator;
        Buffer.add_string buf n)
      names;
    Buffer.add_char buf '\n'
  end;
  List.iter
    (fun r ->
      let row =
        Array.of_list
          (List.map
             (fun n -> match Value.field_opt r n with Some v -> v | None -> Value.Null)
             names)
      in
      write_row buf config row)
    records;
  Buffer.contents buf

(* The end of the row starting at [pos]: its newline (or the end of the
   source), skipping newlines inside quotes. *)
let row_eol src ~pos =
  let n = String.length src in
  let i = ref pos and quoted = ref false in
  while
    !i < n
    &&
    let c = String.unsafe_get src !i in
    c <> '\n' || !quoted
  do
    if String.unsafe_get src !i = '"' then quoted := not !quoted;
    incr i
  done;
  !i

let row_bounds src ~pos =
  let eol = row_eol src ~pos in
  let stop = if eol > pos && src.[eol - 1] = '\r' then eol - 1 else eol in
  (pos, stop, Int.min (String.length src) (eol + 1))

(* A UTF-8 byte-order mark before the header (common in spreadsheet
   exports) is not data; skip it so the first header/field name is clean. *)
let bom_skip src =
  if String.length src >= 3 && src.[0] = '\xef' && src.[1] = '\xbb' && src.[2] = '\xbf'
  then 3
  else 0

let data_start config src =
  let start = bom_skip src in
  if not config.has_header then start
  else
    let _, _, next = row_bounds src ~pos:start in
    next

(* The field scanners return ints only: without flambda a tuple result is
   a heap block per field visited, and these run once per field of every
   index build, accessor call and batch fill. Their int bounds use
   [Int.min]: the polymorphic [min] is a C call per use.

   [field_stop] is the end of the field starting at [i]. Quoted fields
   include their quotes in the span; parse_string strips them. *)
let field_stop config src ~stop i =
  let stop = Int.min stop (String.length src) in
  if i < stop && String.unsafe_get src i = '"' then begin
    (* runs to the closing quote; a doubled quote is an escaped one *)
    let j = ref (i + 1) and close = ref (-1) in
    while !close < 0 do
      let k = !j in
      if k >= stop then close := k
      else if String.unsafe_get src k <> '"' then j := k + 1
      else if k + 1 < stop && String.unsafe_get src (k + 1) = '"' then j := k + 2
      else close := k + 1
    done;
    !close
  end
  else begin
    let sep = config.separator in
    let j = ref i in
    while !j < stop && String.unsafe_get src !j <> sep do
      incr j
    done;
    !j
  end

let next_field config src ~stop fstop =
  if fstop < stop && fstop < String.length src && String.unsafe_get src fstop = config.separator
  then fstop + 1
  else fstop

let field_spans config src ~start ~stop =
  if start >= stop then []
  else begin
    let rec go i acc =
      let fstop = field_stop config src ~stop i in
      let next = next_field config src ~stop fstop in
      let acc = (i, fstop) :: acc in
      if next >= stop then List.rev acc else go next acc
    in
    go start []
  end

(* Field count of the row [start..stop); allocation-free twin of
   [field_spans] (same trailing-separator convention). *)
let count_fields config src ~start ~stop =
  if start >= stop then 0
  else begin
    let i = ref start and k = ref 1 in
    while
      i := next_field config src ~stop (field_stop config src ~stop !i);
      !i < stop
    do
      incr k
    done;
    !k
  end

let nth_field_start config src ~start ~stop n =
  let i = ref start in
  for _ = 1 to n do
    let next = next_field config src ~stop (field_stop config src ~stop !i) in
    if next >= stop then
      Perror.parse_error ~what:"csv" ~pos:start "row has fewer than %d fields" (n + 1);
    i := next
  done;
  !i

type row = {
  mutable bounds : int array;
  mutable fields : int;
  mutable stop : int;
  mutable next : int;
}

let row () = { bounds = Array.make 64 0; fields = 0; stop = 0; next = 0 }

let add_field r start stop =
  let k = 2 * r.fields in
  if k + 1 >= Array.length r.bounds then begin
    let a = Array.make (2 * Array.length r.bounds) 0 in
    Array.blit r.bounds 0 a 0 k;
    r.bounds <- a
  end;
  Array.unsafe_set r.bounds k start;
  Array.unsafe_set r.bounds (k + 1) stop;
  r.fields <- r.fields + 1

(* The row's end as [row_bounds] places it, given its newline [eol]. *)
let set_end src r ~pos eol =
  r.stop <- (if eol > pos && String.unsafe_get src (eol - 1) = '\r' then eol - 1 else eol);
  r.next <- Int.min (String.length src) (eol + 1)

(* Any row: [row_eol], then the fields one [field_stop] at a time. *)
let scan_row_slow config src ~pos r =
  set_end src r ~pos (row_eol src ~pos);
  r.fields <- 0;
  if pos < r.stop then begin
    let i = ref pos and more = ref true in
    while !more do
      let fstop = field_stop config src ~stop:r.stop !i in
      add_field r !i fstop;
      let next = next_field config src ~stop:r.stop fstop in
      if next >= r.stop then more := false else i := next
    done
  end

(* One pass over a row without quotes: every separator before the newline
   ends a field. A quote sends the row to [scan_row_slow], as does a
   separator that could be mistaken for a row or quote delimiter. *)
let scan_row config src ~pos r =
  let sep = config.separator in
  if sep = '"' || sep = '\n' || sep = '\r' then scan_row_slow config src ~pos r
  else begin
    let n = String.length src in
    r.fields <- 0;
    let i = ref pos and fstart = ref pos and quoted = ref false and at_end = ref false in
    while not (!at_end || !quoted) do
      if !i >= n then at_end := true
      else begin
        let c = String.unsafe_get src !i in
        if c = sep then begin
          add_field r !fstart !i;
          fstart := !i + 1;
          incr i
        end
        else if c = '\n' then at_end := true
        else if c = '"' then quoted := true
        else incr i
      end
    done;
    if !quoted then scan_row_slow config src ~pos r
    else begin
      set_end src r ~pos !i;
      (* a trailing separator ends the row without an empty last field *)
      if !fstart < r.stop then add_field r !fstart r.stop
    end
  end

let parse_int src ~start ~stop =
  try Numparse.int_span src ~start ~stop
  with Perror.Parse_error { pos; msg; _ } ->
    Perror.parse_error ~what:"csv" ~pos "bad int field: %s" msg

(* Besides decimals, a CSV float is one of the non-finite renderings of
   [render_value]; no other spelling ("NaN", "infinity") is. *)
let parse_float src ~start ~stop =
  try Numparse.float_span src ~start ~stop with
  | (Perror.Parse_error _ | Failure _) as e -> (
    match String.sub src start (stop - start), e with
    | "nan", _ -> Float.nan
    | "-nan", _ -> Float.neg Float.nan
    | "inf", _ -> Float.infinity
    | "-inf", _ -> Float.neg_infinity
    | _, Perror.Parse_error { msg; _ } ->
      Perror.parse_error ~what:"csv" ~pos:start "bad float field: %s" msg
    | _ -> Perror.parse_error ~what:"csv" ~pos:start "bad float field")

let parse_bool src ~start ~stop =
  let len = stop - start in
  if len = 4 && String.sub src start 4 = "true" then true
  else if len = 5 && String.sub src start 5 = "false" then false
  else if len = 1 && src.[start] = '1' then true
  else if len = 1 && src.[start] = '0' then false
  else Perror.parse_error ~what:"csv" ~pos:start "bad bool field"

let parse_string src ~start ~stop =
  if stop > start && src.[start] = '"' && src.[stop - 1] = '"' then begin
    let buf = Buffer.create (stop - start - 2) in
    let rec go i =
      if i < stop - 1 then
        if src.[i] = '"' && i + 1 < stop - 1 && src.[i + 1] = '"' then begin
          Buffer.add_char buf '"';
          go (i + 2)
        end
        else begin
          Buffer.add_char buf src.[i];
          go (i + 1)
        end
    in
    go (start + 1);
    Buffer.contents buf
  end
  else String.sub src start (stop - start)

let rec parse_value ty src ~start ~stop : Value.t =
  match (ty : Ptype.t) with
  | Option inner ->
    if start >= stop then Value.Null else parse_value inner src ~start ~stop
  | Int -> Value.Int (parse_int src ~start ~stop)
  | Date ->
    (* dates appear as ISO strings in files; bare integers (epoch days) are
       also accepted *)
    if stop - start = 10 && src.[start + 4] = '-' then
      Value.Date (Date_util.of_span src ~start ~stop)
    else Value.Date (parse_int src ~start ~stop)
  | Float -> Value.Float (parse_float src ~start ~stop)
  | Bool -> Value.Bool (parse_bool src ~start ~stop)
  | String -> Value.String (parse_string src ~start ~stop)
  | Record _ | Collection _ ->
    Perror.type_error "CSV field of non-primitive type %a" Ptype.pp ty

let read_all config schema src =
  let fields = Schema.fields schema in
  let n = String.length src in
  let rec rows pos acc =
    if pos >= n then List.rev acc
    else
      let start, stop, next = row_bounds src ~pos in
      if start = stop then rows next acc (* skip blank line *)
      else begin
        let spans = field_spans config src ~start ~stop in
        let got = List.length spans and want = List.length fields in
        (* positioned at the first extra field, or where a missing one
           would start *)
        if got <> want then
          Perror.parse_error ~what:"csv"
            ~pos:(if got > want then fst (List.nth spans want) else stop)
            "row has %d fields, expected %d" got want;
        let record =
          Value.record
            (List.map2
               (fun (f : Schema.field) (fstart, fstop) ->
                 (f.name, parse_value f.ty src ~start:fstart ~stop:fstop))
               fields spans)
        in
        rows next (record :: acc)
      end
  in
  rows (data_start config src) []

let row_count config src =
  let n = String.length src in
  let rec go pos acc =
    if pos >= n then acc
    else
      let start, stop, next = row_bounds src ~pos in
      go next (if start = stop then acc else acc + 1)
  in
  go (data_start config src) 0
