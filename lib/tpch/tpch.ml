open Proteus_model
module Plan = Proteus_algebra.Plan
module Json = Proteus_format.Json

type t = {
  sf : float;
  lineitems : Value.t list;
  orders : Value.t list;
  order_count : int;
}

(* Deterministic xorshift64 PRNG so every run regenerates identical data. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.of_int (if seed = 0 then 0x2545F491 else seed) }

  let next t =
    let x = t.s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.s <- x;
    Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL)

  let int t bound = next t mod bound


  (* Fisher–Yates *)
  let shuffle t arr =
    for i = Array.length arr - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done
end

let lineitem_type =
  Ptype.Record
    [
      ("l_orderkey", Ptype.Int);
      ("l_linenumber", Ptype.Int);
      ("l_quantity", Ptype.Int);
      ("l_extendedprice", Ptype.Float);
      ("l_discount", Ptype.Float);
      ("l_tax", Ptype.Float);
    ]

let order_type =
  Ptype.Record
    [
      ("o_orderkey", Ptype.Int);
      ("o_custkey", Ptype.Int);
      ("o_totalprice", Ptype.Float);
      ("o_shippriority", Ptype.Int);
    ]

let denorm_order_type =
  Ptype.Record
    [
      ("o_orderkey", Ptype.Int);
      ("o_custkey", Ptype.Int);
      ("o_totalprice", Ptype.Float);
      ("o_shippriority", Ptype.Int);
      ("lineitems", Ptype.Collection (Ptype.List, lineitem_type));
    ]

let generate ?(seed = 42) ~sf () =
  let rng = Rng.create seed in
  let order_count = max 1 (int_of_float (1_500_000.0 *. sf)) in
  let orders = ref [] and lineitems = ref [] in
  for key = order_count downto 1 do
    let o =
      Value.record
        [
          ("o_orderkey", Value.Int key);
          ("o_custkey", Value.Int (1 + Rng.int rng (max 1 (order_count / 10))));
          ("o_totalprice", Value.Float (float_of_int (85771 + Rng.int rng 55_500_000) /. 100.));
          ("o_shippriority", Value.Int (Rng.int rng 5));
        ]
    in
    orders := o :: !orders;
    (* TPC-H: 1–7 lineitems per order, averaging 4 *)
    let nl = 1 + Rng.int rng 7 in
    for ln = 1 to nl do
      let qty = 1 + Rng.int rng 50 in
      let price = float_of_int (90_000 + Rng.int rng 10_400_000) /. 100. in
      let li =
        Value.record
          [
            ("l_orderkey", Value.Int key);
            ("l_linenumber", Value.Int ln);
            ("l_quantity", Value.Int qty);
            ("l_extendedprice", Value.Float price);
            ("l_discount", Value.Float (float_of_int (Rng.int rng 11) /. 100.));
            ("l_tax", Value.Float (float_of_int (Rng.int rng 9) /. 100.));
          ]
      in
      lineitems := li :: !lineitems
    done
  done;
  (* shuffle both files, as the paper does *)
  let o = Array.of_list !orders and l = Array.of_list !lineitems in
  Rng.shuffle rng o;
  Rng.shuffle rng l;
  { sf; lineitems = Array.to_list l; orders = Array.to_list o; order_count }

let csv_of element records =
  Proteus_format.Csv.of_records Proteus_format.Csv.default_config
    (Schema.of_type element) records

let lineitem_csv t = csv_of lineitem_type t.lineitems
let orders_csv t = csv_of order_type t.orders

let json_of ?(shuffle_fields = false) records =
  let buf = Buffer.create (1 lsl 16) in
  let rng = Rng.create 97 in
  List.iter
    (fun r ->
      let j = Json.of_value r in
      let j =
        if not shuffle_fields then j
        else
          match j with
          | Json.Obj fields ->
            let arr = Array.of_list fields in
            Rng.shuffle rng arr;
            Json.Obj (Array.to_list arr)
          | j -> j
      in
      Json.to_buffer buf j;
      Buffer.add_char buf '\n')
    records;
  Buffer.contents buf

let lineitem_json ?shuffle_fields t = json_of ?shuffle_fields t.lineitems
let orders_json ?shuffle_fields t = json_of ?shuffle_fields t.orders

let denormalized_orders t =
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun li ->
      let k = Value.to_int (Value.field li "l_orderkey") in
      Hashtbl.replace by_key k (li :: (try Hashtbl.find by_key k with Not_found -> [])))
    t.lineitems;
  List.map
    (fun o ->
      let k = Value.to_int (Value.field o "o_orderkey") in
      let lis = try List.rev (Hashtbl.find by_key k) with Not_found -> [] in
      match o with
      | Value.Record fields ->
        Value.Record (Array.append fields [| ("lineitems", Value.list_ lis) |])
      | _ -> assert false)
    t.orders

let denormalized_json ?shuffle_fields t =
  json_of ?shuffle_fields (denormalized_orders t)

let columns_of element records =
  let schema = Schema.of_type element in
  List.map
    (fun (f : Schema.field) ->
      ( f.name,
        Proteus_storage.Column.of_values f.ty
          (List.map (fun r -> Value.field r f.name) records) ))
    (Schema.fields schema)

let lineitem_columns t = columns_of lineitem_type t.lineitems
let orders_columns t = columns_of order_type t.orders

module Queries = struct
  type projection_variant = Count1 | Max1 | Agg4
  type join_variant = JCount | JMax | JAgg2

  let threshold ~order_count ~selectivity =
    max 1 (int_of_float (selectivity *. float_of_int order_count))

  let li_field x f = Expr.Field (Expr.var x, f)

  let projection ~lineitem ~order_count ~variant ~selectivity =
    let x = threshold ~order_count ~selectivity in
    let pred = Expr.(li_field "l" "l_orderkey" <. int x) in
    let aggs =
      match variant with
      | Count1 -> [ Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      | Max1 ->
        [ Plan.agg ~name:"max_qty" (Monoid.Primitive Monoid.Max) (li_field "l" "l_quantity") ]
      | Agg4 ->
        [
          Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1);
          Plan.agg ~name:"max_qty" (Monoid.Primitive Monoid.Max) (li_field "l" "l_quantity");
          Plan.agg ~name:"cnt2" (Monoid.Primitive Monoid.Count)
            (li_field "l" "l_extendedprice");
          Plan.agg ~name:"max_disc" (Monoid.Primitive Monoid.Max) (li_field "l" "l_discount");
        ]
    in
    Plan.reduce aggs
      (Plan.select pred (Plan.scan ~dataset:lineitem ~binding:"l" ()))

  let selection ~lineitem ~order_count ~predicates ~selectivity =
    let x = threshold ~order_count ~selectivity in
    (* the first predicate controls selectivity; the others are loose bounds
       on further numeric fields, as in the template val1<X AND ... valN<Z *)
    let preds =
      [
        Expr.(li_field "l" "l_orderkey" <. int x);
        Expr.(li_field "l" "l_quantity" <. int 51);
        Expr.(li_field "l" "l_discount" <. float 0.11);
        Expr.(li_field "l" "l_tax" <. float 0.09);
      ]
    in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    Plan.reduce
      [ Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.select
         (Expr.conjoin (take (max 1 predicates) preds))
         (Plan.scan ~dataset:lineitem ~binding:"l" ()))

  let join ~orders ~lineitem ~order_count ~variant ~selectivity =
    let x = threshold ~order_count ~selectivity in
    let aggs =
      match variant with
      | JCount -> [ Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      | JMax ->
        [ Plan.agg ~name:"max_total" (Monoid.Primitive Monoid.Max)
            (Expr.Field (Expr.var "o", "o_totalprice")) ]
      | JAgg2 ->
        [
          Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1);
          Plan.agg ~name:"max_total" (Monoid.Primitive Monoid.Max)
            (Expr.Field (Expr.var "o", "o_totalprice"));
        ]
    in
    Plan.reduce aggs
      (Plan.select
         Expr.(li_field "l" "l_orderkey" <. int x)
         (Plan.join
            ~pred:
              Expr.(
                Field (var "o", "o_orderkey") ==. Field (var "l", "l_orderkey"))
            (Plan.scan ~dataset:lineitem ~binding:"l" ())
            (Plan.scan ~dataset:orders ~binding:"o" ())))

  let unnest_count ~denorm ~order_count ~selectivity =
    let x = threshold ~order_count ~selectivity in
    Plan.reduce
      [ Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.unnest
         ~pred:Expr.(Field (var "li", "l_orderkey") <. int x)
         ~path:Expr.(Field (var "o", "lineitems"))
         ~binding:"li"
         (Plan.scan ~dataset:denorm ~binding:"o" ()))

  let group_by ~lineitem ~order_count ~aggregates ~selectivity =
    let x = threshold ~order_count ~selectivity in
    let all =
      [
        Plan.agg ~name:"cnt" (Monoid.Primitive Monoid.Count) (Expr.int 1);
        Plan.agg ~name:"sum_qty" (Monoid.Primitive Monoid.Sum) (li_field "l" "l_quantity");
        Plan.agg ~name:"max_price" (Monoid.Primitive Monoid.Max)
          (li_field "l" "l_extendedprice");
        Plan.agg ~name:"min_disc" (Monoid.Primitive Monoid.Min) (li_field "l" "l_discount");
      ]
    in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    Plan.nest
      ~pred:Expr.(li_field "l" "l_orderkey" <. int x)
      ~keys:[ ("l_linenumber", li_field "l" "l_linenumber") ]
      ~aggs:(take (max 1 aggregates) all)
      ~binding:"g"
      (Plan.scan ~dataset:lineitem ~binding:"l" ())
end
