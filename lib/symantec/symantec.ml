open Proteus_model
module Plan = Proteus_algebra.Plan
module Json = Proteus_format.Json

type params = {
  json_objects : int;
  csv_rows : int;
  bin_rows : int;
  days : int;
  seed : int;
}

let default_params =
  { json_objects = 2_000; csv_rows = 15_000; bin_rows = 25_000; days = 100; seed = 7 }

type t = {
  params : params;
  json_text : string;
  csv_text : string;
  bin_records : Value.t list;
}

let url_type = Ptype.Record [ ("host", Ptype.String); ("clicks", Ptype.Int) ]

let json_type =
  Ptype.Record
    [
      ("mid", Ptype.Int);
      ("lang", Ptype.String);
      ("country", Ptype.String);
      ("ip", Ptype.String);
      ("bot", Ptype.String);
      ("size", Ptype.Int);
      ("day", Ptype.Int);
      ("score", Ptype.Float);
      ("urls", Ptype.Collection (Ptype.List, url_type));
    ]

let csv_type =
  Ptype.Record
    [
      ("mid", Ptype.Int);
      ("class_a", Ptype.Int);
      ("class_b", Ptype.Int);
      ("class_c", Ptype.Int);
      ("class_d", Ptype.Int);
      ("conf", Ptype.Float);
      ("conf2", Ptype.Float);
      ("day", Ptype.Int);
      ("label", Ptype.String);
      ("campaign", Ptype.String);
      ("digest", Ptype.String);
    ]

let bin_type =
  Ptype.Record
    [
      ("hid", Ptype.Int);
      ("mid", Ptype.Int);
      ("day", Ptype.Int);
      ("src", Ptype.Int);
      ("weight", Ptype.Float);
    ]

let json_name = "spam_json"
let csv_name = "spam_csv"
let bin_name = "spam_bin"

(* the same deterministic PRNG idiom as the TPC-H generator *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) }

  let next t =
    let x = t.s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.s <- x;
    Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL)

  let int t bound = next t mod bound
  let pick t arr = arr.(int t (Array.length arr))
end

let langs = [| "en"; "es"; "ru"; "zh"; "pt"; "de"; "fr"; "ja"; "it"; "tr" |]

let countries =
  [| "us"; "cn"; "ru"; "br"; "in"; "de"; "vn"; "ua"; "kr"; "es"; "ro"; "pl" |]

let bots =
  [| "rustock"; "cutwail"; "grum"; "kelihos"; "lethic"; "festi"; "darkmailer" |]

let labels = [| "spam"; "spam-pharma"; "phish"; "scam"; "malware"; "newsletter" |]

let hosts = [| "pills.example"; "win.example"; "bank.example"; "luxury.example" |]

let generate ?(params = default_params) () =
  let rng = Rng.create params.seed in
  (* JSON: one object per mail, field order shuffled per object *)
  let json_buf = Buffer.create (1 lsl 16) in
  for mid = 1 to params.json_objects do
    let urls =
      List.init (Rng.int rng 4) (fun _ ->
          Json.Obj
            [ ("host", Json.Str (Rng.pick rng hosts));
              ("clicks", Json.Int (Rng.int rng 20)) ])
    in
    let fields =
      [|
        ("mid", Json.Int mid);
        ("lang", Json.Str (Rng.pick rng langs));
        ("country", Json.Str (Rng.pick rng countries));
        ( "ip",
          Json.Str
            (Fmt.str "%d.%d.%d.%d" (Rng.int rng 256) (Rng.int rng 256) (Rng.int rng 256)
               (Rng.int rng 256)) );
        ("bot", Json.Str (Rng.pick rng bots));
        ("size", Json.Int (200 + Rng.int rng 40_000));
        ("day", Json.Int (Rng.int rng params.days));
        ("score", Json.Float (float_of_int (Rng.int rng 101) /. 100.));
        ("urls", Json.Arr urls);
      |]
    in
    (* arbitrary field order, as in the real feed *)
    for i = Array.length fields - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = fields.(i) in
      fields.(i) <- fields.(j);
      fields.(j) <- tmp
    done;
    Json.to_buffer json_buf (Json.Obj (Array.to_list fields));
    Buffer.add_char json_buf '\n'
  done;
  (* CSV: classification output *)
  let csv_records =
    List.init params.csv_rows (fun i ->
        ignore i;
        Value.record
          [
            ("mid", Value.Int (1 + Rng.int rng params.json_objects));
            ("class_a", Value.Int (Rng.int rng 20));
            ("class_b", Value.Int (Rng.int rng 8));
            ("class_c", Value.Int (Rng.int rng 50));
            ("class_d", Value.Int (Rng.int rng 5));
            ("conf", Value.Float (float_of_int (Rng.int rng 101) /. 100.));
            ("conf2", Value.Float (float_of_int (Rng.int rng 1001) /. 1000.));
            ("day", Value.Int (Rng.int rng params.days));
            ("label", Value.String (Rng.pick rng labels));
            ("campaign", Value.String (Fmt.str "cmp-%04d" (Rng.int rng 300)));
            ("digest", Value.String (Fmt.str "%08x%08x" (Rng.int rng 0x3FFFFFFF) (Rng.int rng 0x3FFFFFFF)));
          ])
  in
  let csv_text =
    Proteus_format.Csv.of_records Proteus_format.Csv.default_config
      (Schema.of_type csv_type) csv_records
  in
  (* binary history table *)
  let bin_records =
    List.init params.bin_rows (fun i ->
        Value.record
          [
            ("hid", Value.Int i);
            ("mid", Value.Int (1 + Rng.int rng params.json_objects));
            ("day", Value.Int (Rng.int rng params.days));
            ("src", Value.Int (Rng.int rng 6));
            ("weight", Value.Float (float_of_int (Rng.int rng 1001) /. 100.));
          ])
  in
  { params; json_text = Buffer.contents json_buf; csv_text; bin_records }

(* --- the 50-query workload -------------------------------------------------- *)

let f x n = Expr.Field (Expr.var x, n)

let count = Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1)

let sum name e = Plan.agg ~name (Monoid.Primitive Monoid.Sum) e

let mx name e = Plan.agg ~name (Monoid.Primitive Monoid.Max) e

let mn name e = Plan.agg ~name (Monoid.Primitive Monoid.Min) e

let avg name e = Plan.agg ~name (Monoid.Primitive Monoid.Avg) e

let scan_b = Plan.scan ~dataset:bin_name ~binding:"b" ()
let scan_c = Plan.scan ~dataset:csv_name ~binding:"c" ()
let scan_j = Plan.scan ~dataset:json_name ~binding:"j" ()

let join2 a b key_a key_b =
  Plan.join ~pred:Expr.(key_a ==. key_b) a b

let queries t =
  let days = t.params.days in
  let day_lt x frac =
    let k = max 1 (int_of_float (frac *. float_of_int days)) in
    Expr.(f x "day" <. int k)
  in
  let reduce ?pred aggs input = Plan.reduce ?pred aggs input in
  [
    (* --- BIN --- *)
    ("Q1", reduce ~pred:(day_lt "b" 0.10) [ count ] scan_b);
    ("Q2", reduce ~pred:(day_lt "b" 0.25) [ sum "w" (f "b" "weight") ] scan_b);
    ("Q3", reduce ~pred:Expr.(f "b" "src" ==. int 3) [ count ] scan_b);
    ( "Q4",
      reduce ~pred:(day_lt "b" 0.05)
        [ mx "w" (f "b" "weight"); count ]
        scan_b );
    ( "Q5",
      Plan.nest ~keys:[ ("src", f "b" "src") ] ~aggs:[ count ] ~binding:"g" scan_b );
    ( "Q6",
      Plan.nest ~pred:(day_lt "b" 0.25)
        ~keys:[ ("src", f "b" "src") ]
        ~aggs:[ sum "w" (f "b" "weight") ]
        ~binding:"g" scan_b );
    ("Q7", reduce ~pred:(day_lt "b" 0.10) [ avg "w" (f "b" "weight") ] scan_b);
    ("Q8", reduce ~pred:(day_lt "b" 0.01) [ count ] scan_b);
    (* --- CSV --- *)
    ("Q9", reduce ~pred:(day_lt "c" 0.25) [ count ] scan_c);
    ("Q10", reduce ~pred:(day_lt "c" 0.10) [ sum "cf" (f "c" "conf") ] scan_c);
    ("Q11", reduce ~pred:Expr.(f "c" "class_a" ==. int 5) [ count ] scan_c);
    ( "Q12",
      reduce
        ~pred:Expr.(Binop (Like, f "c" "label", str "spam%") &&& day_lt "c" 0.25)
        [ count ] scan_c );
    ( "Q13",
      Plan.nest
        ~keys:[ ("label", f "c" "label") ]
        ~aggs:[ count ] ~binding:"g" scan_c );
    ( "Q14",
      Plan.nest ~pred:(day_lt "c" 0.25)
        ~keys:[ ("class_a", f "c" "class_a") ]
        ~aggs:[ sum "cf" (f "c" "conf") ]
        ~binding:"g" scan_c );
    ( "Q15",
      reduce ~pred:(day_lt "c" 0.10)
        [ mx "hi" (f "c" "conf"); count; mn "lo" (f "c" "conf") ]
        scan_c );
    (* --- JSON --- *)
    ("Q16", reduce ~pred:(day_lt "j" 0.25) [ count ] scan_j);
    ("Q17", reduce ~pred:(day_lt "j" 0.10) [ sum "sz" (f "j" "size") ] scan_j);
    ("Q18", reduce ~pred:Expr.(f "j" "country" ==. str "us") [ count ] scan_j);
    ("Q19", reduce ~pred:(day_lt "j" 0.25) [ mx "sc" (f "j" "score") ] scan_j);
    ( "Q20",
      Plan.nest
        ~keys:[ ("wk", Expr.(Binop (Mod, f "j" "day", int 7))) ]
        ~aggs:[ count; sum "sz" (f "j" "size") ]
        ~binding:"g" scan_j );
    ("Q21", reduce ~pred:Expr.(f "j" "lang" ==. str "en") [ count ] scan_j);
    ( "Q22",
      reduce [ count ]
        (Plan.unnest
           ~pred:Expr.(f "u" "clicks" >. int 5)
           ~path:(f "j" "urls") ~binding:"u" scan_j) );
    ( "Q23",
      reduce
        [ sum "clk" (f "u" "clicks") ]
        (Plan.unnest ~pred:(day_lt "j" 0.10) ~path:(f "j" "urls") ~binding:"u" scan_j)
    );
    ( "Q24",
      reduce ~pred:(day_lt "j" 0.25)
        [ count; mx "sc" (f "j" "score"); sum "sz" (f "j" "size"); mn "lo" (f "j" "score") ]
        scan_j );
    ("Q25", reduce ~pred:Expr.(f "j" "score" >=. float 0.9) [ count ] scan_j);
    (* --- BIN ⋈ CSV --- *)
    ( "Q26",
      reduce ~pred:(day_lt "b" 0.05) [ count ]
        (join2 scan_b scan_c (f "b" "mid") (f "c" "mid")) );
    ( "Q27",
      reduce
        ~pred:Expr.(f "c" "class_a" ==. int 3)
        [ sum "w" (f "b" "weight") ]
        (join2 scan_b scan_c (f "b" "mid") (f "c" "mid")) );
    ( "Q28",
      reduce
        ~pred:Expr.(Binop (Like, f "c" "label", str "phi%"))
        [ count ]
        (join2 scan_b scan_c (f "b" "mid") (f "c" "mid")) );
    ( "Q29",
      reduce ~pred:(day_lt "b" 0.01) [ count ]
        (join2 scan_b scan_c (f "b" "mid") (f "c" "mid")) );
    ( "Q30",
      Plan.nest ~pred:(day_lt "c" 0.10)
        ~keys:[ ("src", f "b" "src") ]
        ~aggs:[ count ] ~binding:"g"
        (join2 scan_b scan_c (f "b" "mid") (f "c" "mid")) );
    (* --- BIN ⋈ JSON --- *)
    ( "Q31",
      reduce ~pred:(day_lt "j" 0.10) [ count ]
        (join2 scan_b scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q32",
      reduce
        ~pred:Expr.(f "j" "score" >=. float 0.8)
        [ mx "w" (f "b" "weight") ]
        (join2 scan_b scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q33",
      reduce
        ~pred:Expr.(f "b" "src" ==. int 2)
        [ sum "sz" (f "j" "size") ]
        (join2 scan_b scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q34",
      reduce ~pred:(day_lt "b" 0.25)
        [ count; mx "sc" (f "j" "score") ]
        (join2 scan_b scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q35",
      Plan.nest ~pred:(day_lt "j" 0.25)
        ~keys:[ ("src", f "b" "src") ]
        ~aggs:[ sum "sz" (f "j" "size") ]
        ~binding:"g"
        (join2 scan_b scan_j (f "b" "mid") (f "j" "mid")) );
    (* --- CSV ⋈ JSON --- *)
    ( "Q36",
      reduce ~pred:(day_lt "c" 0.10) [ count ]
        (join2 scan_c scan_j (f "c" "mid") (f "j" "mid")) );
    ( "Q37",
      reduce
        ~pred:Expr.(f "j" "score" >=. float 0.5)
        [ sum "cf" (f "c" "conf") ]
        (join2 scan_c scan_j (f "c" "mid") (f "j" "mid")) );
    ( "Q38",
      reduce
        ~pred:Expr.(f "c" "class_a" ==. int 1)
        [ mx "sc" (f "j" "score") ]
        (join2 scan_c scan_j (f "c" "mid") (f "j" "mid")) );
    ( "Q39",
      (* the outlier: a broad CSV ⋈ JSON join — systems whose optimizer
         treats JSON as opaque pick a nested-loop plan here *)
      reduce ~pred:(day_lt "c" 0.25) [ count ]
        (join2 scan_c scan_j (f "c" "mid") (f "j" "mid")) );
    ( "Q40",
      Plan.nest ~pred:(day_lt "j" 0.10)
        ~keys:[ ("class_b", f "c" "class_b") ]
        ~aggs:[ count ] ~binding:"g"
        (join2 scan_c scan_j (f "c" "mid") (f "j" "mid")) );
    (* --- BIN ⋈ CSV ⋈ JSON --- *)
    ( "Q41",
      reduce ~pred:(day_lt "b" 0.10) [ count ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q42",
      reduce
        ~pred:Expr.(f "j" "score" >=. float 0.5)
        [ sum "w" (f "b" "weight") ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q43",
      reduce
        ~pred:Expr.(f "b" "src" ==. int 1)
        [ mx "cf" (f "c" "conf") ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q44",
      reduce ~pred:(day_lt "j" 0.05) [ count ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q45",
      Plan.nest
        ~keys:[ ("src", f "b" "src") ]
        ~aggs:[ count ] ~binding:"g"
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q46",
      reduce
        ~pred:Expr.(f "c" "class_a" <. int 5)
        [ sum "sz" (f "j" "size") ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q47",
      reduce ~pred:(day_lt "b" 0.25)
        [ count; mx "sc" (f "j" "score"); sum "w" (f "b" "weight") ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q48",
      reduce
        ~pred:
          Expr.(
            Binop (Like, f "c" "label", str "spam%") &&& (f "j" "score" >=. float 0.7))
        [ count ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q49",
      Plan.nest ~pred:(day_lt "c" 0.10)
        ~keys:[ ("class_b", f "c" "class_b") ]
        ~aggs:[ sum "w" (f "b" "weight") ]
        ~binding:"g"
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
    ( "Q50",
      reduce ~pred:(day_lt "b" 0.01) [ count ]
        (join2
           (join2 scan_b scan_c (f "b" "mid") (f "c" "mid"))
           scan_j (f "b" "mid") (f "j" "mid")) );
  ]

let group_of name =
  let n = int_of_string (String.sub name 1 (String.length name - 1)) in
  if n <= 8 then "BIN"
  else if n <= 15 then "CSV"
  else if n <= 25 then "JSON"
  else if n <= 30 then "BinCSV"
  else if n <= 35 then "BinJSON"
  else if n <= 40 then "CSVJSON"
  else "BINCSVJSON"
