type t = {
  src : string;
  config : Csv.config;
  every : int;
  arity : int;
  fixed : fixed option;        (* Some => fixed-width fast path *)
  row_starts : int array;      (* row byte offsets; empty in fixed mode *)
  row_stops : int array;
  per_row : int;               (* anchor slots per row: ceil (arity / every) *)
  anchors : int array;
      (* anchors.(row * per_row + k) = start of field k*every, -1 where a
         ragged short row lacks that field; empty in fixed mode *)
}

and fixed = {
  first_row : int;             (* offset of the first data row *)
  row_len : int;               (* bytes per row including the newline *)
  field_offsets : int array;   (* offset of each field within a row *)
  field_stops : int array;     (* end offset of each field within a row *)
  nrows : int;
}

let config t = t.config
let source t = t.src
let stride t = t.every
let arity t = t.arity
let is_fixed_width t = t.fixed <> None

let row_count t =
  match t.fixed with Some f -> f.nrows | None -> Array.length t.row_starts

(* A growable int array: the row scan appends to these without building
   per-row lists. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 256 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  Array.unsafe_set b.a b.n x;
  b.n <- b.n + 1

(* The first [len] elements of [prefix] (all by default) followed by the
   buffered tail, in one exact-size allocation. *)
let concat ?len prefix b =
  let p = Option.value len ~default:(Array.length prefix) in
  let a = Array.make (p + b.n) 0 in
  Array.blit prefix 0 a 0 p;
  Array.blit b.a 0 a p b.n;
  a

(* One pass over the rows from byte [pos] on. [row] is the index the first
   scanned row gets; [layout] is the fixed-width candidate the rows must
   match (learned from the first row when [None]); [arity = 0] learns the
   nominal arity from the first row too. Every row's anchors are buffered;
   [fixed_ok] stays true while each row matches the candidate and starts
   exactly where the arithmetic places it. *)
type scan = {
  starts : buf;
  stops : buf;
  anchor_buf : buf;
  s_arity : int;
  s_per_row : int;
  layout : (int * (int * int) list) option;  (* row length, relative spans *)
  fixed_ok : bool;
  first_row : int;
  scanned : int;
}

let scan_rows cfg ~every src ~pos ~row ~first_row ~arity ~layout =
  let n = String.length src in
  let starts = buf () and stops = buf () and anchor_buf = buf () in
  let arity = ref arity and per_row = ref ((arity + every - 1) / every) in
  let layout = ref layout and fixed_ok = ref true in
  let first_row = ref first_row in
  let k = ref 0 and pos = ref pos in
  while !pos < n do
    let rstart, rstop, next = Csv.row_bounds src ~pos:!pos in
    if rstart = rstop then pos := next
    else begin
      let spans = Csv.field_spans cfg src ~start:rstart ~stop:rstop in
      (* The first row fixes the nominal arity. Ragged rows (more or fewer
         fields) are tolerated at build time — each keeps its own anchors —
         and reported as a per-row Parse_error at access time, so error
         policies can skip or null-fill them instead of rejecting the file. *)
      if !arity = 0 then begin
        arity := List.length spans;
        per_row := (!arity + every - 1) / every
      end;
      (* Fixed-width check: identical relative offsets and row length, and
         rows packed back to back (a blank line breaks the arithmetic). *)
      let rel =
        (next - rstart, List.map (fun (a, b) -> (a - rstart, b - rstart)) spans)
      in
      (match !layout with
      | None ->
        layout := Some rel;
        if !first_row < 0 then first_row := rstart - (row * (next - rstart))
      | Some c -> if c <> rel then fixed_ok := false);
      (match !layout with
      | Some (row_len, _) when rstart <> !first_row + ((row + !k) * row_len) ->
        fixed_ok := false
      | _ -> ());
      push starts rstart;
      push stops rstop;
      let slot = ref 0 in
      List.iteri
        (fun i (a, _) ->
          if i mod every = 0 && !slot < !per_row then begin
            push anchor_buf a;
            incr slot
          end)
        spans;
      for _ = !slot to !per_row - 1 do
        push anchor_buf (-1)
      done;
      incr k;
      pos := next
    end
  done;
  {
    starts;
    stops;
    anchor_buf;
    s_arity = !arity;
    s_per_row = !per_row;
    layout = !layout;
    fixed_ok = !fixed_ok;
    first_row = !first_row;
    scanned = !k;
  }

let fixed_of s ~nrows =
  match s.layout with
  | Some (row_len, rel_spans) when s.fixed_ok && nrows > 0 ->
    Some
      {
        first_row = s.first_row;
        row_len;
        field_offsets = Array.of_list (List.map fst rel_spans);
        field_stops = Array.of_list (List.map snd rel_spans);
        nrows;
      }
  | _ -> None

let build cfg ?(every = 5) src =
  let start0 = Csv.data_start cfg src in
  let s =
    scan_rows cfg ~every src ~pos:start0 ~row:0 ~first_row:start0 ~arity:0 ~layout:None
  in
  match fixed_of s ~nrows:s.scanned with
  | Some _ as fixed ->
    (* Positions are now computable; drop the per-row arrays entirely. *)
    { src; config = cfg; every; arity = s.s_arity; fixed; row_starts = [||];
      row_stops = [||]; per_row = s.s_per_row; anchors = [||] }
  | None ->
    { src; config = cfg; every; arity = s.s_arity; fixed = None;
      row_starts = concat [||] s.starts; row_stops = concat [||] s.stops;
      per_row = s.s_per_row; anchors = concat [||] s.anchor_buf }

let row_span t row =
  match t.fixed with
  | Some f ->
    let start = f.first_row + (row * f.row_len) in
    (* stop = start of the last field's end *)
    (start, start + f.field_stops.(Array.length f.field_stops - 1))
  | None -> (t.row_starts.(row), t.row_stops.(row))

(* The per-row arrays of the first [rows] rows followed by [s]'s rows, as
   a non-fixed index keeps them: copied from a non-fixed [t], or
   materialized arithmetically from a fixed layout. *)
let per_row_arrays t ~rows s =
  match t.fixed with
  | None ->
    ( concat ~len:rows t.row_starts s.starts,
      concat ~len:rows t.row_stops s.stops,
      concat ~len:(rows * t.per_row) t.anchors s.anchor_buf )
  | Some f ->
    let last = Array.length f.field_stops - 1 in
    let start r = f.first_row + (r * f.row_len) in
    ( concat (Array.init rows start) s.starts,
      concat (Array.init rows (fun r -> start r + f.field_stops.(last))) s.stops,
      concat
        (Array.init (rows * t.per_row) (fun i ->
             let r = i / t.per_row and k = i mod t.per_row in
             let field = k * t.every in
             if field <= last then start r + f.field_offsets.(field) else -1))
        s.anchor_buf )

(* Rows are delimited by the bytes after their start only, so re-scanning
   from the start of the old last row reproduces exactly what a full build
   finds from there on, and every earlier row is unchanged. The last row
   itself must end where it did: an append behind a row left inside an
   open quote continues that row, and then the old rows are no longer a
   prefix of the new ones. *)
let extend t src =
  let rows = row_count t in
  if rows = 0 then Some (build t.config ~every:t.every src)
  else begin
    let keep = rows - 1 in
    let last_start, last_stop = row_span t keep in
    (* past the first row the old layout must hold; a lone row is
       re-judged from scratch, as a build would *)
    let layout, first_row =
      match t.fixed with
      | Some f when keep > 0 ->
        ( Some
            ( f.row_len,
              List.combine (Array.to_list f.field_offsets) (Array.to_list f.field_stops) ),
          f.first_row )
      | _ -> (None, if keep = 0 then Csv.data_start t.config src else -1)
    in
    let s =
      scan_rows t.config ~every:t.every src ~pos:last_start ~row:keep ~first_row
        ~arity:t.arity ~layout
    in
    if s.scanned = 0 || s.stops.a.(0) <> last_stop then None
    else
      let nrows = keep + s.scanned in
      if s.fixed_ok && (keep = 0 || t.fixed <> None) then
        Some
          { t with src; fixed = fixed_of s ~nrows; row_starts = [||]; row_stops = [||];
            anchors = [||] }
      else
        let row_starts, row_stops, anchors = per_row_arrays t ~rows:keep s in
        Some { t with src; fixed = None; row_starts; row_stops; anchors }
  end

let field_span t ~row ~field =
  match t.fixed with
  | Some f ->
    let base = f.first_row + (row * f.row_len) in
    (base + f.field_offsets.(field), base + f.field_stops.(field))
  | None ->
    let stop = t.row_stops.(row) in
    (* Ragged short rows may lack the anchor for [field], and fields past
       the nominal arity have none: fall back to the last anchor the row
       has and let the forward scan report a missing field as a
       Parse_error positioned at the row. Slot 0 always exists. *)
    let base = row * t.per_row in
    let k = ref (min (field / t.every) (t.per_row - 1)) in
    while t.anchors.(base + !k) < 0 do
      decr k
    done;
    Csv.nth_field_span t.config t.src ~start:t.anchors.(base + !k) ~stop
      (field - (!k * t.every))

let row_arity t row =
  match t.fixed with
  | Some _ -> t.arity
  | None ->
    Csv.count_fields t.config t.src ~start:t.row_starts.(row)
      ~stop:t.row_stops.(row)

let byte_size t =
  match t.fixed with
  | Some f -> 8 * (4 + (2 * Array.length f.field_offsets))
  | None -> 8 * ((2 * Array.length t.row_starts) + Array.length t.anchors)
