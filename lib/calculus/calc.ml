open Proteus_model

type source = Dataset of string | Path of Expr.t | Sub of t

and qual = Gen of string * source | Pred of Expr.t

and output =
  | Collect of Ptype.coll * Expr.t
  | Aggregate of (string * Monoid.primitive * Expr.t) list
  | Group of {
      keys : (string * Expr.t) list;
      aggs : (string * Monoid.primitive * Expr.t) list;
    }

and t = { output : output; quals : qual list }

let coll_name = function Ptype.Bag -> "bag" | Ptype.Set -> "set" | Ptype.List -> "list"

let rec pp ppf t =
  let pp_qual ppf = function
    | Gen (x, Dataset d) -> Fmt.pf ppf "%s <- %s" x d
    | Gen (x, Path e) -> Fmt.pf ppf "%s <- %a" x Expr.pp e
    | Gen (x, Sub c) -> Fmt.pf ppf "%s <- (%a)" x pp c
    | Pred e -> Expr.pp ppf e
  in
  let pp_agg ppf (n, m, e) =
    Fmt.pf ppf "%s = %s(%a)" n (Monoid.to_string (Monoid.Primitive m)) Expr.pp e
  in
  Fmt.pf ppf "for {@[%a@]} " Fmt.(list ~sep:(any ", ") pp_qual) t.quals;
  match t.output with
  | Collect (c, e) -> Fmt.pf ppf "yield %s %a" (coll_name c) Expr.pp e
  | Aggregate aggs -> Fmt.pf ppf "yield %a" Fmt.(list ~sep:(any ", ") pp_agg) aggs
  | Group { keys; aggs } ->
    let pp_key ppf (n, e) = Fmt.pf ppf "%s = %a" n Expr.pp e in
    Fmt.pf ppf "group by %a yield %a"
      Fmt.(list ~sep:(any ", ") pp_key)
      keys
      Fmt.(list ~sep:(any ", ") pp_agg)
      aggs

let to_string t = Fmt.str "%a" pp t

let equal a b = a = b

let rec free_vars t =
  let bound = ref [] in
  let free = ref [] in
  let add vs =
    List.iter (fun v -> if not (List.mem v !bound || List.mem v !free) then free := v :: !free) vs
  in
  List.iter
    (function
      | Gen (x, src) ->
        (match src with
        | Dataset _ -> ()
        | Path e -> add (Expr.free_vars e)
        | Sub c -> add (List.filter (fun v -> not (List.mem v !bound)) (free_vars c)));
        bound := x :: !bound
      | Pred e -> add (Expr.free_vars e))
    t.quals;
  (match t.output with
  | Collect (_, e) -> add (Expr.free_vars e)
  | Aggregate aggs -> List.iter (fun (_, _, e) -> add (Expr.free_vars e)) aggs
  | Group { keys; aggs } ->
    List.iter (fun (_, e) -> add (Expr.free_vars e)) keys;
    List.iter (fun (_, _, e) -> add (Expr.free_vars e)) aggs);
  List.rev !free

let rec datasets t =
  List.concat_map
    (function
      | Gen (_, Dataset d) -> [ d ]
      | Gen (_, Sub c) -> datasets c
      | Gen (_, Path _) | Pred _ -> [])
    t.quals

(* Environments flow left to right through the qualifiers; sub-comprehensions
   evaluate under the outer environment they appear in. *)
let rec eval_in ~lookup env t : Value.t =
  let step envs = function
    | Pred e -> List.filter (fun env -> Expr.eval_pred env e) envs
    | Gen (x, src) ->
      List.concat_map
        (fun env ->
          let elems =
            match src with
            | Dataset d -> lookup d
            | Path e -> (
              match Expr.eval env e with
              | Value.Coll (_, es) -> es
              | Value.Null -> []
              | v -> Perror.type_error "generator over non-collection %a" Value.pp v)
            | Sub c -> (
              match eval_in ~lookup env c with
              | Value.Coll (_, es) -> es
              | v -> Perror.type_error "generator over non-collection %a" Value.pp v)
          in
          List.map (fun e -> (x, e) :: env) elems)
        envs
  in
  let envs = List.fold_left step [ env ] t.quals in
  finish envs t.output

and finish envs output : Value.t =
  match output with
  | Collect (c, e) -> Monoid.collect c (List.map (fun env -> Expr.eval env e) envs)
  | Aggregate aggs ->
    let one (_, m, e) =
      let acc = Monoid.acc_create m in
      List.iter (fun env -> Monoid.acc_step acc (Expr.eval env e)) envs;
      Monoid.acc_value acc
    in
    (match aggs with
    | [] -> Perror.plan_error "aggregate output with no aggregates"
    | [ a ] -> one a
    | many -> Value.record (List.map (fun ((n, _, _) as a) -> (n, one a)) many))
  | Group { keys; aggs } ->
    let groups : (Value.t list, Expr.env list ref) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun env ->
        let kv = List.map (fun (_, e) -> Expr.eval env e) keys in
        match Hashtbl.find_opt groups kv with
        | Some cell -> cell := env :: !cell
        | None ->
          Hashtbl.add groups kv (ref [ env ]);
          order := kv :: !order)
      envs;
    let rows =
      List.rev_map
        (fun kv ->
          let members = List.rev !(Hashtbl.find groups kv) in
          let key_fields = List.map2 (fun (n, _) v -> (n, v)) keys kv in
          let agg_fields =
            List.map
              (fun (n, m, e) ->
                let acc = Monoid.acc_create m in
                List.iter (fun env -> Monoid.acc_step acc (Expr.eval env e)) members;
                (n, Monoid.acc_value acc))
              aggs
          in
          Value.record (key_fields @ agg_fields))
        !order
    in
    Value.bag rows

let eval ~lookup t = eval_in ~lookup [] t

let validate t =
  let rec go outer t =
    let bound = ref outer in
    let check e =
      List.iter
        (fun v ->
          if not (List.mem v !bound) then
            Perror.plan_error "comprehension references unbound variable %s" v)
        (Expr.free_vars e)
    in
    List.iter
      (function
        | Gen (x, src) ->
          (match src with
          | Dataset _ -> ()
          | Path e -> check e
          | Sub c -> go !bound c);
          if List.mem x !bound then Perror.plan_error "generator shadows %s" x;
          bound := x :: !bound
        | Pred e -> check e)
      t.quals;
    match t.output with
    | Collect (_, e) -> check e
    | Aggregate aggs -> List.iter (fun (_, _, e) -> check e) aggs
    | Group { keys; aggs } ->
      List.iter (fun (_, e) -> check e) keys;
      List.iter (fun (_, _, e) -> check e) aggs
  in
  go [] t
