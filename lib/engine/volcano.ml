open Proteus_model
open Proteus_plugin
module Plan = Proteus_algebra.Plan

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* Interpreted expression evaluation: every call re-walks the expression
   tree — the per-tuple dispatch the compiled engine removes. The dispatch
   counter advances by the number of nodes interpreted. *)
let rec expr_size (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Param _ | Expr.Var _ -> 1
  | Expr.Field (b, _) -> 1 + expr_size b
  | Expr.Binop (_, l, r) -> 1 + expr_size l + expr_size r
  | Expr.Unop (_, x) -> 1 + expr_size x
  | Expr.If (c, t, f) -> 1 + expr_size c + expr_size t + expr_size f
  | Expr.Record_ctor fs -> List.fold_left (fun acc (_, x) -> acc + expr_size x) 1 fs
  | Expr.Coll_ctor (_, xs) -> List.fold_left (fun acc x -> acc + expr_size x) 1 xs

let eval sz env e =
  Counters.add_dispatches sz;
  Expr.eval env e

let eval_pred sz env e =
  Counters.add_dispatches sz;
  Expr.eval_pred env e

(* Build one boxed record per tuple containing only the required paths,
   reconstructing nesting so that interpreted Field chains resolve. *)
let tuple_builder (src : Source.t) (req : [ `Whole | `Paths of string list ]) :
    unit -> Value.t =
  match req with
  | `Whole -> src.Source.whole
  | `Paths [] -> fun () -> Value.record []
  | `Paths paths ->
    (* group paths into a tree of segments, leaves carry accessors *)
    let rec build paths_with_segs =
      (* paths_with_segs : (string list * Access.t) list, grouped by head *)
      let heads =
        List.fold_left
          (fun acc (segs, a) ->
            match segs with
            | [] -> acc
            | h :: rest ->
              let existing = try List.assoc h acc with Not_found -> [] in
              (h, (rest, a) :: existing) :: List.remove_assoc h acc)
          [] paths_with_segs
        |> List.rev
      in
      let fields =
        List.map
          (fun (h, children) ->
            match children with
            | [ ([], a) ] -> (h, fun () -> a.Access.get_val ())
            | children ->
              let sub = build (List.rev children) in
              (h, sub))
          heads
      in
      fun () -> Value.record (List.map (fun (n, get) -> (n, get ())) fields)
    in
    build
      (List.map (fun p -> (String.split_on_char '.' p, src.Source.field p)) paths)

type iter = unit -> Expr.env option

type provider = dataset:string -> required:string list -> Source.t

let rec open_plan (reg : provider)
    (required : (string * [ `Whole | `Paths of string list ]) list) (p : Plan.t) : iter
    =
  match p with
  | Plan.Scan { dataset; binding; _ } ->
    let req =
      match List.assoc_opt binding required with
      | Some r -> r
      | None -> `Paths []
    in
    let paths = match req with `Paths ps -> ps | `Whole -> [] in
    let src = reg ~dataset ~required:paths in
    let build = tuple_builder src req in
    let i = ref 0 in
    (* Under Skip_row, a row whose structural validation or required reads
       fail is dropped and accounted — [build] touches exactly the paths
       the query needs, so the skip set matches the compiled engine's
       probe-then-commit and results stay bit-identical across engines. *)
    let rec next () =
      if !i >= src.Source.count then None
      else begin
        let row = !i in
        incr i;
        if row land 1023 = 0 then Fault.check_cancel ();
        src.Source.seek row;
        match
          (match src.Source.validate with
          | Some v when Fault.skipping () -> v ()
          | _ -> ());
          build ()
        with
        | v ->
          Counters.add_tuples 1;
          Some [ (binding, v) ]
        | exception e when Fault.skipping () && Fault.recoverable e ->
          Fault.record_skip ~source:dataset ~row e;
          next ()
      end
    in
    next
  | Plan.Select { pred; input } ->
    let next = open_plan reg required input in
    let sz = expr_size pred in
    let rec loop () =
      match next () with
      | None -> None
      | Some env ->
        Counters.add_branch_points 1;
        if eval_pred sz env pred then Some env else loop ()
    in
    loop
  | Plan.Project { binding; fields; input } ->
    let next = open_plan reg required input in
    let szs = List.map (fun (_, e) -> expr_size e) fields in
    fun () ->
      Option.map
        (fun env ->
          [
            ( binding,
              Value.record
                (List.map2 (fun (n, e) sz -> (n, eval sz env e)) fields szs) );
          ])
        (next ())
  | Plan.Unnest { outer; path; binding; pred; input } ->
    let next = open_plan reg required input in
    let psz = expr_size path and csz = expr_size pred in
    let pending : Expr.env list ref = ref [] in
    let rec loop () =
      match !pending with
      | env :: rest ->
        pending := rest;
        Some env
      | [] -> (
        match next () with
        | None -> None
        | Some env ->
          let elems =
            match eval psz env path with
            | Value.Coll (_, es) -> es
            | Value.Null -> []
            | v -> Perror.type_error "unnest over non-collection %a" Value.pp v
          in
          let matches =
            List.filter_map
              (fun e ->
                let env' = (binding, e) :: env in
                if eval_pred csz env' pred then Some env' else None)
              elems
          in
          let out =
            match outer, matches with
            | true, [] -> [ (binding, Value.Null) :: env ]
            | _, ms -> ms
          in
          pending := out;
          loop ())
    in
    loop
  | Plan.Join { kind; left; right; pred; left_key; right_key; algo } ->
    let equi =
      match left_key, right_key with
      | Some l, Some r when algo = Plan.Radix_hash -> Some (l, r)
      | _ ->
        if algo = Plan.Radix_hash then
          List.find_map
            (fun c ->
              match (c : Expr.t) with
              | Expr.Binop (Expr.Eq, l, r) ->
                let lb = Plan.bindings left and rb = Plan.bindings right in
                let subset vs bs = List.for_all (fun v -> List.mem v bs) vs in
                if subset (Expr.free_vars l) lb && subset (Expr.free_vars r) rb then
                  Some (l, r)
                else if subset (Expr.free_vars l) rb && subset (Expr.free_vars r) lb
                then Some (r, l)
                else None
              | _ -> None)
            (Expr.conjuncts pred)
        else None
    in
    let next_left = open_plan reg required left in
    let psz = expr_size pred in
    let null_right = List.map (fun b -> (b, Value.Null)) (Plan.bindings right) in
    (* Drain and materialize the build side (boxed). *)
    let right_envs =
      let next_right = open_plan reg required right in
      let rec drain acc =
        match next_right () with
        | Some env ->
          Counters.add_materialized (List.length env);
          drain (env :: acc)
        | None -> List.rev acc
      in
      drain []
    in
    let table = VH.create 256 in
    (match equi with
    | Some (_, rk) ->
      let rsz = expr_size rk in
      List.iter
        (fun env ->
          match eval rsz env rk with
          | Value.Null -> ()
          | k ->
            let prev = try VH.find table k with Not_found -> [] in
            VH.replace table k (env :: prev))
        right_envs
    | None -> ());
    let pending : Expr.env list ref = ref [] in
    let rec loop () =
      match !pending with
      | env :: rest ->
        pending := rest;
        Some env
      | [] -> (
        match next_left () with
        | None -> None
        | Some lenv ->
          let candidates =
            match equi with
            | Some (lk, _) -> (
              match eval (expr_size lk) lenv lk with
              | Value.Null -> []
              | k -> ( try List.rev (VH.find table k) with Not_found -> []))
            | None -> right_envs
          in
          let matches =
            List.filter_map
              (fun renv ->
                let env = lenv @ renv in
                Counters.add_branch_points 1;
                if eval_pred psz env pred then Some env else None)
              candidates
          in
          let out =
            match kind, matches with
            | Plan.Inner, ms -> ms
            | Plan.Left_outer, [] -> [ lenv @ null_right ]
            | Plan.Left_outer, ms -> ms
          in
          pending := out;
          loop ())
    in
    loop
  | Plan.Nest { keys; aggs; pred; binding; input } ->
    let next = open_plan reg required input in
    let psz = expr_size pred in
    let groups :
      (Value.t list
      * [ `Prim of Monoid.acc | `Coll of Ptype.coll * Value.t list ref ] list)
      VH.t =
      VH.create 64
    in
    let order = ref [] in
    let rec drain () =
      match next () with
      | None -> ()
      | Some env ->
        if eval_pred psz env pred then begin
          let kvs = List.map (fun (_, e) -> eval (expr_size e) env e) keys in
          let key = Value.Coll (Ptype.List, kvs) in
          let _, accs =
            match VH.find_opt groups key with
            | Some cell -> cell
            | None ->
              let accs =
                List.map
                  (fun (a : Plan.agg) ->
                    match a.monoid with
                    | Monoid.Primitive prim -> `Prim (Monoid.acc_create prim)
                    | Monoid.Collection c -> `Coll (c, ref []))
                  aggs
              in
              let cell = (kvs, accs) in
              VH.add groups key cell;
              order := key :: !order;
              cell
          in
          List.iter2
            (fun (a : Plan.agg) acc ->
              let v = eval (expr_size a.expr) env a.expr in
              match acc with
              | `Prim acc -> Monoid.acc_step acc v
              | `Coll (_, cell) -> cell := v :: !cell)
            aggs accs
        end;
        drain ()
    in
    drain ();
    let remaining = ref (List.rev !order) in
    fun () ->
      (match !remaining with
      | [] -> None
      | key :: rest ->
        remaining := rest;
        let kvs, accs = VH.find groups key in
        let key_fields = List.map2 (fun (n, _) v -> (n, v)) keys kvs in
        let agg_fields =
          List.map2
            (fun (a : Plan.agg) acc ->
              ( a.agg_name,
                match acc with
                | `Prim acc -> Monoid.acc_value acc
                | `Coll (c, cell) -> Monoid.collect c (List.rev !cell) ))
            aggs accs
        in
        Some [ (binding, Value.record (key_fields @ agg_fields)) ])
  | Plan.Sort { keys; limit; input } ->
    let next = open_plan reg required input in
    let key_szs = List.map (fun (e, _) -> expr_size e) keys in
    let rec drain acc =
      match next () with
      | None -> List.rev acc
      | Some env ->
        Counters.add_materialized (List.length env);
        drain ((List.map2 (fun (e, _) sz -> eval sz env e) keys key_szs, env) :: acc)
    in
    let cmp (ka, _) (kb, _) =
      let rec go ks ds =
        match ks, ds with
        | (a, b) :: rest, (_, d) :: drest ->
          let c = Value.compare a b in
          if c <> 0 then (match (d : Plan.sort_dir) with Plan.Asc -> c | Plan.Desc -> -c)
          else go rest drest
        | _, _ -> 0
      in
      go (List.combine ka kb) keys
    in
    let sorted = List.stable_sort cmp (drain []) in
    let remaining =
      ref
        (match limit with
        | None -> sorted
        | Some n -> List.filteri (fun i _ -> i < n) sorted)
    in
    fun () ->
      (match !remaining with
      | [] -> None
      | (_, env) :: rest ->
        remaining := rest;
        Some env)
  | Plan.Reduce _ -> Perror.plan_error "Reduce below the plan root is not supported"

(* Every root folds, as in the compiled engine: a root that is not a Reduce
   collects its visible bindings into a bag ([Compiled.root_fold]). *)
let execute_with (reg : provider) (plan : Plan.t) : Value.t =
  let monoid_output, pred, input = Compiled.root_fold plan in
  let required =
    Exprc.required_paths (Compiled.all_exprs (Plan.Reduce { monoid_output; pred; input }))
  in
  let next = open_plan reg required input in
  let psz = expr_size pred in
  let accs =
    List.map
      (fun (a : Plan.agg) ->
        match a.monoid with
        | Monoid.Primitive prim -> `Prim (a, Monoid.acc_create prim, expr_size a.expr)
        | Monoid.Collection c -> `Coll (a, c, ref [], expr_size a.expr))
      monoid_output
  in
  let rec drain () =
    match next () with
    | None -> ()
    | Some env ->
      if eval_pred psz env pred then
        List.iter
          (function
            | `Prim ((a : Plan.agg), acc, sz) -> Monoid.acc_step acc (eval sz env a.expr)
            | `Coll ((a : Plan.agg), _, cell, sz) -> cell := eval sz env a.expr :: !cell)
          accs;
      drain ()
  in
  drain ();
  let value = function
    | `Prim (_, acc, _) -> Monoid.acc_value acc
    | `Coll (_, c, cell, _) -> Monoid.collect c (List.rev !cell)
  in
  match accs with
  | [ one ] -> value one
  | many ->
    Value.record
      (List.map
         (fun a ->
           let name =
             match a with `Prim ((g : Plan.agg), _, _) -> g.agg_name | `Coll ((g : Plan.agg), _, _, _) -> g.agg_name
           in
           (name, value a))
         many)

let execute (reg : Registry.t) (plan : Plan.t) : Value.t =
  let provider ~dataset ~required =
    (Registry.scan reg ~dataset ~required).Registry.sc_source
  in
  execute_with provider plan
