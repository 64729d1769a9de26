(* The paper's running example (Example 3.1): sailors with nested children
   lists, ships with nested personnel lists, and the query "for each sailor,
   return his id, the name of the ship on which he works, and the names of
   his adult children" — expressed exactly in the paper's comprehension
   syntax and executed over raw JSON.

   Run with: dune exec examples/sailors_and_ships.exe *)

open Proteus_model

let sailors_json =
  {|{"id": 1, "children": [{"name": "ann", "age": 21}, {"name": "bob", "age": 12}]}
{"id": 2, "children": [{"name": "cat", "age": 30}]}
{"id": 3, "children": []}|}

let ships_json =
  {|{"name": "Argo", "personnel": [1, 3]}
{"name": "Beagle", "personnel": [2]}|}

let sailor_type =
  Ptype.Record
    [
      ("id", Ptype.Int);
      ( "children",
        Ptype.Collection
          (Ptype.List, Ptype.Record [ ("name", Ptype.String); ("age", Ptype.Int) ]) );
    ]

let ship_type =
  Ptype.Record
    [ ("name", Ptype.String); ("personnel", Ptype.Collection (Ptype.List, Ptype.Int)) ]

let () =
  let db = Proteus.Db.create () in
  Proteus.Db.register_json db ~name:"Sailor" ~element:sailor_type
    ~contents:sailors_json;
  Proteus.Db.register_json db ~name:"Ship" ~element:ship_type ~contents:ships_json;

  (* Example 3.1, verbatim modulo the record-constructor labels. The two
     nested collections become explicit Unnest operators in the plan
     (Figure 1 of the paper). *)
  let query =
    "for { s1 <- Sailor, c <- s1.children, s2 <- Ship, p <- s2.personnel, \
     s1.id = p, c.age > 18 } yield bag (id: s1.id, ship: s2.name, child: c.name)"
  in
  Fmt.pr "query: %s@.@." query;
  let plan = Proteus.Db.plan_comprehension db query in
  Fmt.pr "physical plan:@.%s@.@." (Proteus_algebra.Plan.to_string plan);
  let result = Proteus.Db.run_plan ~optimize:false db plan in
  Fmt.pr "result:@.";
  List.iter (fun row -> Fmt.pr "  %a@." Value.pp row) (Value.elements result)
