(* The reference every checked answer is compared with: the Volcano
   interpreter over a caching-disabled session that holds the same inputs.

   Bags compare order-insensitively, floats to a 1e-9 relative tolerance.
   Ints and floats compare by value, because answers that cross the
   server's wire come back as JSON text. *)

module Value = Proteus_model.Value
module Json = Proteus_format.Json

let session () =
  let db = Proteus.Db.create () in
  Proteus.Db.set_caching db false;
  db

let plan_answer ?params db plan =
  Proteus.Db.run_plan ~engine:Proteus.Db.Engine_volcano ?params db plan

let sql_answer ?params db sql = plan_answer ?params db (Proteus.Db.plan_sql db sql)

let rec close (a : Value.t) (b : Value.t) =
  match (a, b) with
  | (Int _ | Float _), (Int _ | Float _) ->
    let x = Value.to_float a and y = Value.to_float b in
    x = y
    || (Float.is_nan x && Float.is_nan y)
    || Float.abs (x -. y) <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
  | Record fa, Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2 (fun (na, va) (nb, vb) -> na = nb && close va vb) fa fb
  | Coll (_, la), Coll (_, lb) ->
    List.length la = List.length lb
    && List.for_all2 close (List.sort Value.compare la) (List.sort Value.compare lb)
  | a, b -> Value.equal a b

(* The server answers one JSON line per result row ([ok N] then N lines). *)
let of_wire lines = Value.bag (List.map (fun l -> Json.to_value (Json.parse_string l)) lines)

let to_wire (v : Value.t) =
  let rows = match v with Coll (_, rows) -> rows | v -> [ v ] in
  of_wire (List.map Proteus.Output.to_json rows)
