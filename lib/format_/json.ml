open Proteus_model

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let fail pos fmt = Perror.parse_error ~what:"json" ~pos fmt

(* The raw scanners are top-level functions over the source and a bound
   that return an int: without flambda, a local recursive function would
   be a closure allocated per call. *)
let rec ws src n i =
  if i < n then
    match String.unsafe_get src i with ' ' | '\t' | '\n' | '\r' -> ws src n (i + 1) | _ -> i
  else i

let rec string_end src n i =
  if i >= n then fail i "unterminated string"
  else
    match String.unsafe_get src i with
    | '\\' -> string_end src n (i + 2)
    | '"' -> i + 1
    | _ -> string_end src n (i + 1)

(* Parse a JSON string literal starting at the opening quote; returns the
   decoded string and the position after the closing quote. *)
let parse_string_lit src pos =
  let n = String.length src in
  if pos >= n || src.[pos] <> '"' then fail pos "expected string";
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= n then fail i "unterminated string"
    else
      match src.[i] with
      | '"' -> (Buffer.contents buf, i + 1)
      | '\\' ->
        if i + 1 >= n then fail i "dangling escape"
        else begin
          (match src.[i + 1] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            if i + 5 >= n then fail i "truncated \\u escape";
            let hex code k =
              match src.[k] with
              | '0' .. '9' as c -> (code lsl 4) lor (Char.code c - 48)
              | ('a' .. 'f' | 'A' .. 'F') as c -> (code lsl 4) lor ((Char.code c lor 32) - 87)
              | _ -> fail i "bad escape %s" (String.sub src i 6)
            in
            let code = hex (hex (hex (hex 0 (i + 2)) (i + 3)) (i + 4)) (i + 5) in
            (* Encode as UTF-8 (basic multilingual plane only). *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | c -> fail i "bad escape \\%c" c);
          if src.[i + 1] = 'u' then go (i + 6) else go (i + 2)
        end
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go (pos + 1)

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let parse_number src pos =
  let n = String.length src in
  let rec stop i = if i < n && is_num_char src.[i] then stop (i + 1) else i in
  let fin = stop pos in
  let s = String.sub src pos (fin - pos) in
  let is_float = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) s in
  if is_float then
    match float_of_string_opt s with
    | Some f -> (Float f, fin)
    | None -> fail pos "bad number %S" s
  else
    match int_of_string_opt s with
    | Some i -> (Int i, fin)
    | None -> (
      match float_of_string_opt s with
      | Some f -> (Float f, fin)
      | None -> fail pos "bad number %S" s)

let rec parse src ~pos =
  let n = String.length src in
  let pos = ws src n pos in
  if pos >= n then fail pos "unexpected end of input";
  match src.[pos] with
  | 'n' ->
    if pos + 4 <= n && String.sub src pos 4 = "null" then (Null, pos + 4)
    else fail pos "expected null"
  | 't' ->
    if pos + 4 <= n && String.sub src pos 4 = "true" then (Bool true, pos + 4)
    else fail pos "expected true"
  | 'f' ->
    if pos + 5 <= n && String.sub src pos 5 = "false" then (Bool false, pos + 5)
    else fail pos "expected false"
  | '"' ->
    let s, next = parse_string_lit src pos in
    (Str s, next)
  | '[' ->
    let rec elems i acc =
      let i = ws src n i in
      if i < n && src.[i] = ']' then
        if acc = [] then (Arr [], i + 1) else fail i "trailing comma in array"
      else begin
        let v, i = parse src ~pos:i in
        let i = ws src n i in
        if i < n && src.[i] = ',' then elems (i + 1) (v :: acc)
        else if i < n && src.[i] = ']' then (Arr (List.rev (v :: acc)), i + 1)
        else fail i "expected ',' or ']'"
      end
    in
    elems (pos + 1) []
  | '{' ->
    let rec members i acc =
      let i = ws src n i in
      if i < n && src.[i] = '}' then
        if acc = [] then (Obj [], i + 1) else fail i "trailing comma in object"
      else begin
        let name, i = parse_string_lit src (ws src n i) in
        let i = ws src n i in
        if i >= n || src.[i] <> ':' then fail i "expected ':'";
        let v, i = parse src ~pos:(i + 1) in
        let i = ws src n i in
        if i < n && src.[i] = ',' then members (i + 1) ((name, v) :: acc)
        else if i < n && src.[i] = '}' then (Obj (List.rev ((name, v) :: acc)), i + 1)
        else fail i "expected ',' or '}'"
      end
    in
    members (pos + 1) []
  | '-' | '0' .. '9' -> parse_number src pos
  | c -> fail pos "unexpected character %C" c

let parse_string s =
  let v, fin = parse s ~pos:0 in
  let fin = ws s (String.length s) fin in
  if fin <> String.length s then fail fin "trailing garbage";
  v

let parse_seq src =
  let n = String.length src in
  let rec go pos acc =
    let pos = ws src n pos in
    if pos >= n then List.rev acc
    else
      let v, next = parse src ~pos in
      go next (v :: acc)
  in
  go 0 []

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.12g" f)
  | Str s -> escape_into buf s
  | Arr elems ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf e)
      elems;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (n, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_into buf n;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let rec to_value : t -> Value.t = function
  | Null -> Value.Null
  | Bool b -> Value.Bool b
  | Int i -> Value.Int i
  | Float f -> Value.Float f
  | Str s -> Value.String s
  | Arr elems -> Value.list_ (List.map to_value elems)
  | Obj fields -> Value.record (List.map (fun (n, v) -> (n, to_value v)) fields)

let rec of_value : Value.t -> t = function
  | Value.Null -> Null
  | Value.Bool b -> Bool b
  | Value.Int i -> Int i
  | Value.Date d -> Str (Date_util.to_string d)
  | Value.Float f -> Float f
  | Value.String s -> Str s
  | Value.Coll (_, elems) -> Arr (List.map of_value elems)
  | Value.Record fields ->
    Obj (Array.to_list (Array.map (fun (n, v) -> (n, of_value v)) fields))
