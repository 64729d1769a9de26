open Proteus_model
open Proteus_catalog
module Plan = Proteus_algebra.Plan
module Analysis = Proteus_algebra.Analysis

let format_factor = function
  | Dataset.Json -> 8.0
  | Dataset.Csv _ -> 4.0
  | Dataset.Binary_row -> 1.2
  | Dataset.Binary_column -> 1.0

let default_cardinality = 1000

let default_fanout = 3.0

(* binding -> dataset map of a plan (scans only; unnest bindings have no
   dataset of their own) *)
let rec dataset_map (p : Plan.t) =
  match p with
  | Plan.Scan { dataset; binding; _ } -> [ (binding, dataset) ]
  | _ -> List.concat_map dataset_map (Plan.children p)

let comparison_op (op : Expr.binop) =
  match op with
  | Expr.Lt -> Some `Lt
  | Expr.Le -> Some `Le
  | Expr.Gt -> Some `Gt
  | Expr.Ge -> Some `Ge
  | Expr.Eq -> Some `Eq
  | Expr.Neq | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod | Expr.And
  | Expr.Or | Expr.Concat | Expr.Like ->
    None

let conjunct_selectivity cat ~dataset_of (c : Expr.t) =
  let of_comparison path_e const_e op =
    match Analysis.path_of path_e, const_e with
    | Some (v, p), Expr.Const value when p <> "" -> (
      match dataset_of v with
      | Some ds -> Some (Stats.selectivity (Catalog.stats cat ds) p ~op ~value)
      | None -> None)
    | _ -> None
  in
  let flip = function
    | `Lt -> `Gt
    | `Le -> `Ge
    | `Gt -> `Lt
    | `Ge -> `Le
    | `Eq -> `Eq
  in
  match c with
  | Expr.Binop (op, l, r) -> (
    match comparison_op op with
    | None -> Stats.default_selectivity
    | Some o -> (
      match of_comparison l r o with
      | Some s -> s
      | None -> (
        match of_comparison r l (flip o) with
        | Some s -> s
        | None -> Stats.default_selectivity)))
  | Expr.Const (Value.Bool true) -> 1.0
  | Expr.Const (Value.Bool false) -> 0.0
  | _ -> Stats.default_selectivity

let selectivity cat ~dataset_of pred =
  List.fold_left
    (fun acc c -> acc *. conjunct_selectivity cat ~dataset_of c)
    1.0 (Expr.conjuncts pred)

let scan_cardinality cat dataset =
  match Stats.cardinality (Catalog.stats cat dataset) with
  | Some n -> float_of_int n
  | None -> float_of_int default_cardinality

let distinct_of cat ~dataset_of key =
  match Analysis.path_of key with
  | Some (v, p) when p <> "" -> (
    match dataset_of v with
    | Some ds -> (
      match Stats.field (Catalog.stats cat ds) p with
      | Some fs -> Some (float_of_int fs.Stats.distinct_estimate)
      | None -> None)
    | None -> None)
  | _ -> None

let rec cardinality cat (p : Plan.t) : float =
  let dataset_of =
    let m = dataset_map p in
    fun b -> List.assoc_opt b m
  in
  match p with
  | Plan.Scan { dataset; _ } -> scan_cardinality cat dataset
  | Plan.Select { pred; input } -> cardinality cat input *. selectivity cat ~dataset_of pred
  | Plan.Join { left; right; pred; _ } ->
    let cl = cardinality cat left and cr = cardinality cat right in
    let join_sel =
      (* |L ⋈ R| ≈ |L||R| / max(d_l, d_r) for an equi conjunct *)
      let equi =
        List.find_map
          (fun c ->
            match (c : Expr.t) with
            | Expr.Binop (Expr.Eq, l, r) -> (
              match distinct_of cat ~dataset_of l, distinct_of cat ~dataset_of r with
              | Some dl, Some dr -> Some (1.0 /. Float.max 1.0 (Float.max dl dr))
              | Some d, None | None, Some d -> Some (1.0 /. Float.max 1.0 d)
              | None, None -> None)
            | _ -> None)
          (Expr.conjuncts pred)
      in
      match equi with Some s -> s | None -> Stats.default_selectivity
    in
    Float.max 1.0 (cl *. cr *. join_sel)
  | Plan.Unnest { input; pred; _ } ->
    cardinality cat input *. default_fanout *. selectivity cat ~dataset_of pred
  | Plan.Reduce _ -> 1.0
  | Plan.Nest { input; keys; _ } ->
    let ci = cardinality cat input in
    let groups =
      List.fold_left
        (fun acc (_, k) ->
          match distinct_of cat ~dataset_of k with Some d -> acc *. d | None -> acc *. 10.)
        1.0 keys
    in
    Float.min ci (Float.max 1.0 groups)
  | Plan.Project { input; _ } -> cardinality cat input
  | Plan.Sort { limit; input; _ } -> (
    let ci = cardinality cat input in
    match limit with Some n -> Float.min ci (float_of_int n) | None -> ci)

let rec cost cat (p : Plan.t) : float =
  match p with
  | Plan.Scan { dataset; _ } ->
    let d = Catalog.find cat dataset in
    scan_cardinality cat dataset *. format_factor d.Dataset.format
  | Plan.Select { input; _ } -> cost cat input +. cardinality cat input
  | Plan.Join { left; right; _ } ->
    (* probe the left stream; build (materialize) the right side *)
    cost cat left +. cost cat right
    +. cardinality cat left
    +. (2.0 *. cardinality cat right)
    +. cardinality cat p
  | Plan.Unnest { input; _ } -> cost cat input +. cardinality cat p
  | Plan.Reduce { input; _ } -> cost cat input +. cardinality cat input
  | Plan.Nest { input; _ } -> cost cat input +. (2.0 *. cardinality cat input)
  | Plan.Project { input; _ } -> cost cat input +. cardinality cat input
  | Plan.Sort { input; _ } ->
    (* n log n comparison cost plus full materialization *)
    let ci = cardinality cat input in
    cost cat input +. (2.0 *. ci) +. (ci *. Float.max 1.0 (Float.log ci))
