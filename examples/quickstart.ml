(* Quickstart: one Proteus session over two heterogeneous files — a CSV of
   products and a JSON feed of reviews — queried together with plain SQL.

   Run with: dune exec examples/quickstart.exe *)

open Proteus_model

let products_csv =
  "1,keyboard,49.90\n\
   2,mouse,19.50\n\
   3,monitor,249.00\n\
   4,dock,129.99\n"

let reviews_json =
  {|{"product": 1, "stars": 5, "text": "clacky and great"}
{"product": 1, "stars": 4, "text": "solid"}
{"product": 2, "stars": 2, "text": "double clicks"}
{"product": 3, "stars": 5, "text": "crisp"}
{"product": 3, "stars": 3, "text": "dead pixel"}
{"product": 3, "stars": 4, "text": "good value"}|}

let () =
  let db = Proteus.Db.create () in
  (* Registration declares the element type; the data stays in its original
     format and is queried in place — no loading step. *)
  Proteus.Db.register_csv db ~name:"products"
    ~element:
      (Ptype.Record
         [ ("pid", Ptype.Int); ("pname", Ptype.String); ("price", Ptype.Float) ])
    ~contents:products_csv ();
  Proteus.Db.register_json db ~name:"reviews"
    ~element:
      (Ptype.Record
         [ ("product", Ptype.Int); ("stars", Ptype.Int); ("text", Ptype.String) ])
    ~contents:reviews_json;

  (* SQL over the CSV file *)
  let cheap = Proteus.Db.sql db "SELECT COUNT(*) FROM products WHERE price < 100" in
  Fmt.pr "products under 100: %a@." Value.pp cheap;

  (* SQL joining CSV with JSON — one engine, no integration layer *)
  let per_product =
    Proteus.Db.sql db
      "SELECT pname, COUNT(*) AS reviews, AVG(stars) AS avg_stars \
       FROM products p JOIN reviews r ON pid = product \
       GROUP BY pname ORDER BY avg_stars DESC"
  in
  Fmt.pr "review stats per product:@.";
  List.iter (fun row -> Fmt.pr "  %a@." Value.pp row) (Value.elements per_product);

  (* the same session also speaks the comprehension syntax *)
  let flagged =
    Proteus.Db.run_plan ~optimize:false db
      (Proteus.Db.plan_comprehension db
         "for { r <- reviews, r.stars <= 2 } yield bag (product: r.product, text: r.text)")
  in
  Fmt.pr "flagged reviews: %a@." Value.pp flagged
