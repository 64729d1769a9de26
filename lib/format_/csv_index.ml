type t = {
  src : string;
  config : Csv.config;
  every : int;
  arity : int;
  fixed : fixed option;        (* Some => fixed-width fast path *)
  lead : fixed option;
      (* without the fast path: the first row's layout, and in [nrows] how
         many leading rows conform to it — an extension past a lone
         non-conforming last row regains the fast path from it *)
  row_starts : int array;      (* row byte offsets; empty in fixed mode *)
  row_stops : int array;
  per_row : int;               (* anchor slots per row: ceil (arity / every) *)
  anchors : int array;
      (* anchors.(row * per_row + k) = start of field k*every, -1 where a
         ragged short row lacks that field; empty in fixed mode *)
}

and fixed = {
  first_row : int;             (* offset of the first data row *)
  layout : layout;
  nrows : int;
}

(* Every row of a fixed-width file, relative to its start. *)
and layout = {
  row_len : int;               (* bytes per row including the newline *)
  row_stop : int;              (* end of a row's data *)
  offsets : int array;         (* offset of each field *)
  stops : int array;           (* end offset of each field *)
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
   exactly where the arithmetic places it.

   The scan allocates nothing per row: each row's field boundaries go into
   one reusable buffer (a [Csv.row], starts and stops interleaved), the
   fixed-width check compares them in place against the candidate's arrays
   and is skipped for good once it fails, and the anchors are read off the
   buffer. *)
type scan = {
  starts : buf;
  stops : buf;
  anchor_buf : buf;
  s_arity : int;
  s_per_row : int;
  layout : layout option;
  fixed_ok : bool;
  first_row : int;
  scanned : int;
  conforming : int;  (* leading rows that matched the candidate *)
}

(* Does the row at [rstart] (its [nf] fields in [r], [len] bytes with the
   newline) have exactly the candidate's relative spans? *)
let matches l (r : Csv.row) ~nf ~rstart ~len =
  len = l.row_len
  && r.Csv.stop - rstart = l.row_stop
  && nf = Array.length l.offsets
  &&
  let rec go i =
    i >= nf
    || (r.Csv.bounds.(2 * i) - rstart = l.offsets.(i)
       && r.Csv.bounds.((2 * i) + 1) - rstart = l.stops.(i)
       && go (i + 1))
  in
  go 0

let scan_rows cfg ~every src ~pos ~row ~first_row ~arity ~layout =
  let n = String.length src in
  let starts = buf () and stops = buf () and anchor_buf = buf () in
  let r = Csv.row () in
  let arity = ref arity and per_row = ref ((arity + every - 1) / every) in
  let layout = ref layout and fixed_ok = ref true in
  let first_row = ref first_row in
  let k = ref 0 and conforming = ref 0 and pos = ref pos in
  while !pos < n do
    let rstart = !pos in
    Csv.scan_row cfg src ~pos:rstart r;
    let rstop = r.Csv.stop and next = r.Csv.next in
    if rstart = rstop then pos := next
    else begin
      let nf = r.Csv.fields in
      (* The first row fixes the nominal arity. Ragged rows (more or fewer
         fields) are tolerated at build time — each keeps its own anchors —
         and reported as a per-row Parse_error at access time, so error
         policies can skip or null-fill them instead of rejecting the file. *)
      if !arity = 0 then begin
        arity := nf;
        per_row := (!arity + every - 1) / every
      end;
      (* Fixed-width check: identical relative offsets and row length, and
         rows packed back to back (a blank line breaks the arithmetic). *)
      if !fixed_ok then begin
        let len = next - rstart in
        let l =
          match !layout with
          | Some l ->
            if not (matches l r ~nf ~rstart ~len) then fixed_ok := false;
            l
          | None ->
            let l =
              {
                row_len = len;
                row_stop = rstop - rstart;
                offsets = Array.init nf (fun i -> r.Csv.bounds.(2 * i) - rstart);
                stops = Array.init nf (fun i -> r.Csv.bounds.((2 * i) + 1) - rstart);
              }
            in
            layout := Some l;
            if !first_row < 0 then first_row := rstart - (row * len);
            l
        in
        if rstart <> !first_row + ((row + !k) * l.row_len) then fixed_ok := false;
        if !fixed_ok then incr conforming
      end;
      push starts rstart;
      push stops rstop;
      let anchored = Int.min !per_row ((nf + every - 1) / every) in
      for slot = 0 to anchored - 1 do
        push anchor_buf r.Csv.bounds.(2 * slot * every)
      done;
      for _ = anchored to !per_row - 1 do
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
    conforming = !conforming;
  }

let fixed_of s ~nrows =
  match s.layout with
  | Some l when s.fixed_ok && nrows > 0 ->
    Some
      { first_row = s.first_row; layout = l; nrows }
  | _ -> None

let lead_of s ~nrows =
  Option.map (fun layout -> { first_row = s.first_row; layout; nrows }) s.layout

let build cfg ?(every = 5) src =
  let start0 = Csv.data_start cfg src in
  let s =
    scan_rows cfg ~every src ~pos:start0 ~row:0 ~first_row:start0 ~arity:0 ~layout:None
  in
  match fixed_of s ~nrows:s.scanned with
  | Some _ as fixed ->
    (* Positions are now computable; drop the per-row arrays entirely. *)
    { src; config = cfg; every; arity = s.s_arity; fixed; lead = None; row_starts = [||];
      row_stops = [||]; per_row = s.s_per_row; anchors = [||] }
  | None ->
    { src; config = cfg; every; arity = s.s_arity; fixed = None;
      lead = lead_of s ~nrows:s.conforming;
      row_starts = concat [||] s.starts; row_stops = concat [||] s.stops;
      per_row = s.s_per_row; anchors = concat [||] s.anchor_buf }

let row_span t row =
  match t.fixed with
  | Some f ->
    let start = f.first_row + (row * f.layout.row_len) in
    (start, start + f.layout.row_stop)
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
    let last = Array.length f.layout.stops - 1 in
    let start r = f.first_row + (r * f.layout.row_len) in
    ( concat (Array.init rows start) s.starts,
      concat (Array.init rows (fun r -> start r + f.layout.row_stop)) s.stops,
      concat
        (Array.init (rows * t.per_row) (fun i ->
             let r = i / t.per_row and k = i mod t.per_row in
             let field = k * t.every in
             if field <= last then start r + f.layout.offsets.(field) else -1))
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
    (* the rescan goes on judging the layout every earlier row conforms
       to — the fast path's, or a lead that only the old last row broke;
       a lone row is re-judged from scratch, as a build would *)
    let prior =
      match t.fixed, t.lead with
      | (Some f, _ | None, Some f) when keep > 0 && f.nrows >= keep -> Some f
      | _ -> None
    in
    let layout, first_row =
      match prior with
      | Some f -> (Some f.layout, f.first_row)
      | None -> (None, if keep = 0 then Csv.data_start t.config src else -1)
    in
    let judged = keep = 0 || prior <> None in
    let s =
      scan_rows t.config ~every:t.every src ~pos:last_start ~row:keep ~first_row
        ~arity:t.arity ~layout
    in
    if s.scanned = 0 || s.stops.a.(0) <> last_stop then None
    else
      let nrows = keep + s.scanned in
      if s.fixed_ok && judged then
        Some
          { t with src; fixed = fixed_of s ~nrows; lead = None; row_starts = [||];
            row_stops = [||]; anchors = [||] }
      else
        let row_starts, row_stops, anchors = per_row_arrays t ~rows:keep s in
        let lead = if judged then lead_of s ~nrows:(keep + s.conforming) else t.lead in
        Some { t with src; fixed = None; lead; row_starts; row_stops; anchors }
  end

let field_start t ~row ~field =
  match t.fixed with
  | Some f -> f.first_row + (row * f.layout.row_len) + f.layout.offsets.(field)
  | None ->
    (* Ragged short rows may lack the anchor for [field], and fields past
       the nominal arity have none: fall back to the last anchor the row
       has and let the forward scan report a missing field as a
       Parse_error positioned at the row. Slot 0 always exists. *)
    let base = row * t.per_row in
    let k = ref (Int.min (field / t.every) (t.per_row - 1)) in
    while t.anchors.(base + !k) < 0 do
      decr k
    done;
    Csv.nth_field_start t.config t.src ~start:t.anchors.(base + !k)
      ~stop:t.row_stops.(row) (field - (!k * t.every))

let field_stop t ~row ~field start =
  match t.fixed with
  | Some f -> f.first_row + (row * f.layout.row_len) + f.layout.stops.(field)
  | None -> Csv.field_stop t.config t.src ~stop:t.row_stops.(row) start

let field_span t ~row ~field =
  let start = field_start t ~row ~field in
  (start, field_stop t ~row ~field start)

let row_arity t row =
  match t.fixed with
  | Some _ -> t.arity
  | None ->
    Csv.count_fields t.config t.src ~start:t.row_starts.(row)
      ~stop:t.row_stops.(row)

let byte_size t =
  match t.fixed with
  | Some f -> 8 * (4 + (2 * Array.length f.layout.offsets))
  | None -> 8 * ((2 * Array.length t.row_starts) + Array.length t.anchors)
