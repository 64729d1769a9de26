open Proteus_model
open Proteus_plugin

type repr =
  | Scan_repr of Source.t
  | Unnest_repr of Source.unnest_spec
  | Boxed_repr of Value.t ref
  | Row_repr of (string * Value.t array ref) list * int ref * bool ref
  | Param_repr of Value.t ref

type cenv = (string, repr) Hashtbl.t

(* Parameter slots live in the cenv under a reserved namespace: SQL
   identifiers cannot start with '?', so slot keys never collide with plan
   bindings. *)
let param_key name = "?" ^ name

let param_slot (cenv : cenv) name : Value.t ref =
  match Hashtbl.find_opt cenv (param_key name) with
  | Some (Param_repr r) -> r
  | _ -> Perror.plan_error "unbound parameter ?%s at code generation" name

type compiled =
  | C_int of (unit -> int)
  | C_float of (unit -> float)
  | C_bool of (unit -> bool)
  | C_str of (unit -> string)
  | C_val of (unit -> Value.t)

let to_val = function
  | C_int f -> fun () -> Value.Int (f ())
  | C_float f -> fun () -> Value.Float (f ())
  | C_bool f -> fun () -> Value.Bool (f ())
  | C_str f -> fun () -> Value.String (f ())
  | C_val f -> f

let to_pred = function
  | C_bool f -> f
  | C_val f ->
    fun () ->
      (match f () with
      | Value.Bool b -> b
      | Value.Null -> false
      | v -> Perror.type_error "predicate evaluated to %a" Value.pp v)
  | C_int _ | C_float _ | C_str _ ->
    Perror.type_error "non-boolean predicate"

let path_of = Proteus_algebra.Analysis.path_of

let required_paths = Proteus_algebra.Analysis.required_paths

(* Boxed field walk for dotted paths on boxed values. *)
let boxed_path get path : unit -> Value.t =
  let parts = String.split_on_char '.' path in
  fun () ->
    List.fold_left
      (fun v name ->
        match v with
        | Value.Null -> Value.Null
        | Value.Record _ as r -> (
          match Value.field_opt r name with Some x -> x | None -> Value.Null)
        | v -> Perror.type_error "field %s of non-record %a" name Value.pp v)
      (get ()) parts

(* Lift a plug-in accessor into a compiled closure: typed when the accessor
   is non-nullable and has a typed lane. Dates surface as ints in
   expressions via the typed lane, but their boxed view must stay Date for
   result fidelity. *)
let of_access (a : Access.t) : compiled =
  match a.Access.null, a.Access.lane with
  | None, Access.Int r -> C_int r.Access.get
  | None, Access.Float r -> C_float r.Access.get
  | None, Access.Bool r -> C_bool r.Access.get
  | None, Access.Str r -> C_str r.Access.get
  | _, (Access.Date _ | Access.Boxed) | Some _, _ -> C_val a.Access.get_val

let compile_var_path (cenv : cenv) v path : compiled =
  let repr =
    match Hashtbl.find_opt cenv v with
    | Some r -> r
    | None -> Perror.plan_error "unbound variable %s at code generation" v
  in
  match repr, path with
  | Scan_repr src, "" -> C_val src.Source.whole
  | Scan_repr src, p -> of_access (src.Source.field p)
  | Unnest_repr u, "" -> C_val u.Source.u_value
  | Unnest_repr u, p -> of_access (u.Source.u_field p)
  | Boxed_repr r, "" -> C_val (fun () -> !r)
  | Boxed_repr r, p -> C_val (boxed_path (fun () -> !r) p)
  | Row_repr (cols, cur, null_row), p -> (
    match List.assoc_opt p cols with
    | Some arr ->
      C_val (fun () -> if !null_row then Value.Null else !arr.(!cur))
    | None -> (
      (* dotted sub-path of a materialized whole record *)
      match List.assoc_opt "" cols with
      | Some arr when p <> "" ->
        C_val
          (boxed_path (fun () -> if !null_row then Value.Null else !arr.(!cur)) p)
      | _ -> Perror.plan_error "materialized side has no column for %s.%s" v p))
  | Param_repr _, _ ->
    (* slots live under the reserved "?name" namespace; a plan binding can
       never resolve to one *)
    Perror.plan_error "variable %s resolves to a parameter slot" v

(* The operator tables of the binops, one per binop family, shared by the
   scalar lane here and the batch lane below. [None]: the operands fall
   back to boxed values ([Expr.apply_binop]). *)
let int_arith : Expr.binop -> (int -> int -> int) option = function
  | Add -> Some ( + )
  | Sub -> Some ( - )
  | Mul -> Some ( * )
  | Div -> Some (fun a b -> if b = 0 then Perror.type_error "division by zero" else a / b)
  | Mod -> Some (fun a b -> if b = 0 then Perror.type_error "modulo by zero" else a mod b)
  | Eq | Neq | Lt | Le | Gt | Ge | And | Or | Concat | Like -> None

let float_arith : Expr.binop -> (float -> float -> float) option = function
  | Add -> Some ( +. )
  | Sub -> Some ( -. )
  | Mul -> Some ( *. )
  | Div -> Some ( /. )
  | Mod | Eq | Neq | Lt | Le | Gt | Ge | And | Or | Concat | Like -> None

(* A comparison as a test on two ints: the operands themselves, or a
   [compare] result against 0. *)
let int_comparison : Expr.binop -> int -> int -> bool = function
  | Eq -> ( = )
  | Neq -> ( <> )
  | Lt -> ( < )
  | Le -> ( <= )
  | Gt -> ( > )
  | Ge -> ( >= )
  | Add | Sub | Mul | Div | Mod | And | Or | Concat | Like -> assert false

(* Numeric combination: stay in int when both sides are ints, widen to float
   otherwise; drop to boxed when a side is boxed. *)
let arith op (l : compiled) (r : compiled) : compiled =
  match l, r, int_arith op, float_arith op with
  | C_int a, C_int b, Some iop, _ -> C_int (fun () -> iop (a ()) (b ()))
  | C_int a, C_float b, _, Some fop -> C_float (fun () -> fop (float_of_int (a ())) (b ()))
  | C_float a, C_int b, _, Some fop -> C_float (fun () -> fop (a ()) (float_of_int (b ())))
  | C_float a, C_float b, _, Some fop -> C_float (fun () -> fop (a ()) (b ()))
  | l, r, _, _ ->
    let lv = to_val l and rv = to_val r in
    C_val (fun () -> Expr.apply_binop op (lv ()) (rv ()))

let comparison op (l : compiled) (r : compiled) : compiled =
  let cmp = int_comparison op in
  match l, r with
  | C_int a, C_int b -> C_bool (fun () -> cmp (a ()) (b ()))
  | C_float a, C_float b -> C_bool (fun () -> cmp (compare (a ()) (b ())) 0)
  | C_int a, C_float b -> C_bool (fun () -> cmp (compare (float_of_int (a ())) (b ())) 0)
  | C_float a, C_int b -> C_bool (fun () -> cmp (compare (a ()) (float_of_int (b ()))) 0)
  | C_str a, C_str b -> C_bool (fun () -> cmp (String.compare (a ()) (b ())) 0)
  | C_bool a, C_bool b -> C_bool (fun () -> cmp (compare (a ()) (b ())) 0)
  | l, r ->
    let lv = to_val l and rv = to_val r in
    C_val (fun () -> Expr.apply_binop op (lv ()) (rv ()))

let rec compile (cenv : cenv) (e : Expr.t) : compiled =
  match path_of e with
  | Some (v, path) -> compile_var_path cenv v path
  | None -> (
    match e with
    | Expr.Const (Value.Int i) -> C_int (fun () -> i)
    | Expr.Const (Value.Float f) -> C_float (fun () -> f)
    | Expr.Const (Value.Bool b) -> C_bool (fun () -> b)
    | Expr.Const (Value.String s) -> C_str (fun () -> s)
    | Expr.Const v -> C_val (fun () -> v)
    | Expr.Param p ->
      (* read the slot per evaluation, so a re-bound engine sees the new
         constant without re-staging any closure *)
      let slot = param_slot cenv p in
      C_val (fun () -> !slot)
    | Expr.Var _ | Expr.Field _ -> assert false (* handled by path_of *)
    | Expr.Binop (Expr.And, l, r) ->
      let lp = to_pred (compile cenv l) and rp = to_pred (compile cenv r) in
      C_bool (fun () -> lp () && rp ())
    | Expr.Binop (Expr.Or, l, r) ->
      let lp = to_pred (compile cenv l) and rp = to_pred (compile cenv r) in
      C_bool (fun () -> lp () || rp ())
    | Expr.Binop (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod) as op), l, r)
      ->
      arith op (compile cenv l) (compile cenv r)
    | Expr.Binop
        (((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), l, r) ->
      comparison op (compile cenv l) (compile cenv r)
    | Expr.Binop (Expr.Concat, l, r) -> (
      match compile cenv l, compile cenv r with
      | C_str a, C_str b -> C_str (fun () -> a () ^ b ())
      | l, r ->
        let lv = to_val l and rv = to_val r in
        C_val (fun () -> Expr.apply_binop Expr.Concat (lv ()) (rv ())))
    | Expr.Binop (Expr.Like, l, r) -> (
      match compile cenv l, compile cenv r with
      | C_str a, C_str b -> C_bool (fun () -> Expr.like ~pattern:(b ()) (a ()))
      | l, r ->
        let lv = to_val l and rv = to_val r in
        C_val (fun () -> Expr.apply_binop Expr.Like (lv ()) (rv ())))
    | Expr.Unop (Expr.Neg, x) -> (
      match compile cenv x with
      | C_int a -> C_int (fun () -> -a ())
      | C_float a -> C_float (fun () -> -.a ())
      | c ->
        let v = to_val c in
        C_val (fun () -> Expr.apply_unop Expr.Neg (v ())))
    | Expr.Unop (Expr.Not, x) -> (
      match compile cenv x with
      | C_bool a -> C_bool (fun () -> not (a ()))
      | c ->
        let v = to_val c in
        C_val (fun () -> Expr.apply_unop Expr.Not (v ())))
    | Expr.Unop (Expr.Is_null, x) -> (
      match compile cenv x with
      | C_int _ | C_float _ | C_bool _ | C_str _ ->
        (* statically non-nullable: decided at compile time *)
        C_bool (fun () -> false)
      | C_val v -> C_bool (fun () -> Value.is_null (v ())))
    | Expr.Unop (Expr.To_float, x) -> (
      match compile cenv x with
      | C_int a -> C_float (fun () -> float_of_int (a ()))
      | C_float _ as c -> c
      | c ->
        let v = to_val c in
        C_val (fun () -> Expr.apply_unop Expr.To_float (v ())))
    | Expr.Unop (Expr.To_int, x) -> (
      match compile cenv x with
      | C_int _ as c -> c
      | C_float a -> C_int (fun () -> int_of_float (a ()))
      | c ->
        let v = to_val c in
        C_val (fun () -> Expr.apply_unop Expr.To_int (v ())))
    | Expr.If (c, t, f) -> (
      let cp = to_pred (compile cenv c) in
      match compile cenv t, compile cenv f with
      | C_int a, C_int b -> C_int (fun () -> if cp () then a () else b ())
      | C_float a, C_float b -> C_float (fun () -> if cp () then a () else b ())
      | C_bool a, C_bool b -> C_bool (fun () -> if cp () then a () else b ())
      | C_str a, C_str b -> C_str (fun () -> if cp () then a () else b ())
      | t, f ->
        let tv = to_val t and fv = to_val f in
        C_val (fun () -> if cp () then tv () else fv ()))
    | Expr.Record_ctor fields ->
      let compiled =
        List.map (fun (n, x) -> (n, to_val (compile cenv x))) fields
      in
      C_val (fun () -> Value.record (List.map (fun (n, g) -> (n, g ())) compiled))
    | Expr.Coll_ctor (c, xs) ->
      let compiled = List.map (fun x -> to_val (compile cenv x)) xs in
      C_val (fun () -> Monoid.collect c (List.map (fun g -> g ()) compiled)))

(* ------------------------------------------------------------------- *)
(* The batch lane: kernels over primitive arrays plus a selection       *)
(* vector. A kernel fills its node's batch-aligned output buffer at the *)
(* selected slots ([out.(sel.(i))] holds the value of element           *)
(* [base + sel.(i)]); composition is kernel-then-read-buffer, so an     *)
(* expression tree becomes a short pipeline of primitive array loops.   *)
(* [compile_batch] returns [None] whenever the scalar closure is the    *)
(* right (or only correct) lane: nullable leaves, boxed/date values,    *)
(* conditionals, record/collection construction.                        *)

type bkernel = base:int -> sel:int array -> n:int -> unit

type bcompiled =
  | B_int of int array * bkernel
  | B_float of float array * bkernel
  | B_bool of bool array * bkernel
  | B_str of string array * bkernel

let nop_kernel ~base:_ ~sel:_ ~n:_ = ()

(* A leaf's batch kernel is its lane's fill; nullable fields, dates
   (boxed, mirroring the scalar lane) and fields not addressable by row
   stay scalar. *)
let bleaf bs (src : Source.t) path : bcompiled option =
  let kernel buf fill ~base ~sel ~n = fill base buf ~sel ~n in
  match src.Source.field path with
  | exception Perror.Plan_error _ -> None
  | { Access.null = Some _; _ } -> None
  | { Access.lane; _ } -> (
    match lane with
    | Access.Int { fill = Some f; _ } ->
      let buf = Array.make bs 0 in
      Some (B_int (buf, kernel buf f))
    | Access.Float { fill = Some f; _ } ->
      let buf = Array.make bs 0. in
      Some (B_float (buf, kernel buf f))
    | Access.Bool { fill = Some f; _ } ->
      let buf = Array.make bs false in
      Some (B_bool (buf, kernel buf f))
    | Access.Str { fill = Some f; _ } ->
      let buf = Array.make bs "" in
      Some (B_str (buf, kernel buf f))
    | _ -> None)

let rec compile_batch (cenv : cenv) ~batch_size (e : Expr.t) : bcompiled option =
  let bs = batch_size in
  let bc x = compile_batch cenv ~batch_size x in
  (* Dictionary metadata of a path compiling to a promoted string cache:
     the codes array is indexed by the source's own row ids (base + lane),
     so code-level kernels bypass string materialization entirely. *)
  let dict_of x =
    match path_of x with
    | Some (v, p) when p <> "" -> (
      match Hashtbl.find_opt cenv v with
      | Some (Scan_repr src) -> (
        match src.Source.field p with
        | exception Perror.Plan_error _ -> None
        | a -> a.Access.dict)
      | _ -> None)
    | _ -> None
  in
  let dict_const l r =
    match dict_of l, r with
    | Some d, Expr.Const (Value.String s) -> Some (d, s)
    | _ -> (
      match l, dict_of r with
      | Expr.Const (Value.String s), Some d -> Some (d, s)
      | _ -> None)
  in
  match path_of e with
  | Some (v, path) -> (
    match Hashtbl.find_opt cenv v, path with
    | Some (Scan_repr src), p when p <> "" -> bleaf bs src p
    | _ -> None)
  | None -> (
    match e with
    | Expr.Const (Value.Int i) -> Some (B_int (Array.make bs i, nop_kernel))
    | Expr.Const (Value.Float f) -> Some (B_float (Array.make bs f, nop_kernel))
    | Expr.Const (Value.Bool b) -> Some (B_bool (Array.make bs b, nop_kernel))
    | Expr.Const (Value.String s) -> Some (B_str (Array.make bs s, nop_kernel))
    | Expr.Const _ -> None
    | Expr.Param _ -> None (* standalone params stay scalar; comparisons special-case them *)
    | Expr.Var _ | Expr.Field _ -> None (* handled by path_of *)
    | Expr.Binop (Expr.And, l, r) -> (
      match bc l, bc r with
      | Some (B_bool (lb, lk)), Some (B_bool (rb, rk)) ->
        let out = Array.make bs false in
        let tmp = Array.make bs 0 in
        Some
          (B_bool
             ( out,
               fun ~base ~sel ~n ->
                 lk ~base ~sel ~n;
                 (* evaluate the right side only where the left holds —
                    the vector form of [&&]'s short circuit *)
                 let m = ref 0 in
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- lb.(j);
                   if lb.(j) then begin
                     tmp.(!m) <- j;
                     incr m
                   end
                 done;
                 if !m > 0 then begin
                   rk ~base ~sel:tmp ~n:!m;
                   for i = 0 to !m - 1 do
                     let j = tmp.(i) in
                     out.(j) <- rb.(j)
                   done
                 end ))
      | _ -> None)
    | Expr.Binop (Expr.Or, l, r) -> (
      match bc l, bc r with
      | Some (B_bool (lb, lk)), Some (B_bool (rb, rk)) ->
        let out = Array.make bs false in
        let tmp = Array.make bs 0 in
        Some
          (B_bool
             ( out,
               fun ~base ~sel ~n ->
                 lk ~base ~sel ~n;
                 let m = ref 0 in
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- lb.(j);
                   if not lb.(j) then begin
                     tmp.(!m) <- j;
                     incr m
                   end
                 done;
                 if !m > 0 then begin
                   rk ~base ~sel:tmp ~n:!m;
                   for i = 0 to !m - 1 do
                     let j = tmp.(i) in
                     out.(j) <- rb.(j)
                   done
                 end ))
      | _ -> None)
    | Expr.Binop (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div | Expr.Mod) as op), l, r)
      -> (
      match bc l, bc r, int_arith op, float_arith op with
      | Some (B_int (a, ka)), Some (B_int (b, kb)), Some iop, _ ->
        let out = Array.make bs 0 in
        Some
          (B_int
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- iop a.(j) b.(j)
                 done ))
      | Some (B_int (a, ka)), Some (B_float (b, kb)), _, Some fop ->
        let out = Array.make bs 0. in
        Some
          (B_float
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- fop (float_of_int a.(j)) b.(j)
                 done ))
      | Some (B_float (a, ka)), Some (B_int (b, kb)), _, Some fop ->
        let out = Array.make bs 0. in
        Some
          (B_float
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- fop a.(j) (float_of_int b.(j))
                 done ))
      | Some (B_float (a, ka)), Some (B_float (b, kb)), _, Some fop ->
        let out = Array.make bs 0. in
        Some
          (B_float
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- fop a.(j) b.(j)
                 done ))
      | _ -> None)
    | Expr.Binop
        (((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), l, r) -> (
      let cmp = int_comparison op in
      let bool_out ka kb body =
        let out = Array.make bs false in
        Some
          (B_bool
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- body j
                 done ))
      in
      (* Dictionary fast path: (in)equality of a promoted string column
         against a constant resolves the constant to its code once at
         compile time, then compares ints per lane — no string is ever
         materialized. An absent constant means an all-false (Eq) or
         all-true (Neq) kernel, via the unmatchable code -1. *)
      let dict_eq =
        match op with
        | Expr.Eq | Expr.Neq -> (
          let neq = match op with Expr.Neq -> true | _ -> false in
          match dict_const l r with
          | Some ((codes, dict), s) ->
            let target = ref (-1) in
            Array.iteri (fun i e -> if !target < 0 && String.equal e s then target := i) dict;
            let tgt = !target in
            let out = Array.make bs false in
            Some
              (B_bool
                 ( out,
                   fun ~base ~sel ~n ->
                     Counters.add_dict_probes 1;
                     for i = 0 to n - 1 do
                       let j = sel.(i) in
                       let hit = codes.(base + j) = tgt in
                       out.(j) <- (if neq then not hit else hit)
                     done ))
          | None -> None)
        | _ -> None
      in
      (* Parameter comparison: the column side keeps its batch kernel; the
         parameter side is a slot read dispatched ONCE per batch (the slot
         cannot change mid-run), picking a primitive loop for the common
         type pairings and a boxed per-lane [apply_binop] otherwise — so
         re-bound kernels agree with the scalar lane bit-for-bit, including
         Null bindings (all-false, except Neq: all-true) and cross-type
         Int/Float/Date widenings. [flip] marks the parameter as the LEFT
         operand. *)
      let param_cmp (c : bcompiled) slot ~flip =
        let out = Array.make bs false in
        let icmp (x : int) (y : int) = if flip then cmp y x else cmp x y in
        let fcmp (x : float) (y : float) =
          if flip then cmp (compare y x) 0 else cmp (compare x y) 0
        in
        let scmp (x : string) (y : string) =
          if flip then cmp (String.compare y x) 0 else cmp (String.compare x y) 0
        in
        let bcmp (x : bool) (y : bool) =
          if flip then cmp (compare y x) 0 else cmp (compare x y) 0
        in
        let generic v mk j =
          match
            if flip then Expr.apply_binop op v (mk j) else Expr.apply_binop op (mk j) v
          with
          | Value.Bool b -> b
          | Value.Null -> false
          | u -> Perror.type_error "predicate evaluated to %a" Value.pp u
        in
        let null_body =
          match op with Expr.Neq -> fun _ -> true | _ -> fun _ -> false
        in
        let kernel ka body_of =
          Some
            (B_bool
               ( out,
                 fun ~base ~sel ~n ->
                   ka ~base ~sel ~n;
                   let body = body_of (!slot : Value.t) in
                   for i = 0 to n - 1 do
                     let j = sel.(i) in
                     out.(j) <- body j
                   done ))
        in
        match c with
        | B_int (a, ka) ->
          kernel ka (function
            | Value.Int k | Value.Date k -> fun j -> icmp a.(j) k
            | Value.Float f -> fun j -> fcmp (float_of_int a.(j)) f
            | Value.Null -> null_body
            | v -> generic v (fun j -> Value.Int a.(j)))
        | B_float (a, ka) ->
          kernel ka (function
            | Value.Float f -> fun j -> fcmp a.(j) f
            | Value.Int k ->
              let fk = float_of_int k in
              fun j -> fcmp a.(j) fk
            | Value.Null -> null_body
            | v -> generic v (fun j -> Value.Float a.(j)))
        | B_str (a, ka) ->
          kernel ka (function
            | Value.String s -> fun j -> scmp a.(j) s
            | Value.Null -> null_body
            | v -> generic v (fun j -> Value.String a.(j)))
        | B_bool (a, ka) ->
          kernel ka (function
            | Value.Bool b -> fun j -> bcmp a.(j) b
            | Value.Null -> null_body
            | v -> generic v (fun j -> Value.Bool a.(j)))
      in
      match dict_eq with
      | Some _ -> dict_eq
      | None -> (
      match l, r with
      | Expr.Param _, Expr.Param _ -> None (* both dynamic: scalar lane *)
      | Expr.Param p, x -> (
        match bc x with
        | Some c -> param_cmp c (param_slot cenv p) ~flip:true
        | None -> None)
      | x, Expr.Param q -> (
        match bc x with
        | Some c -> param_cmp c (param_slot cenv q) ~flip:false
        | None -> None)
      | _ -> (
      match bc l, bc r with
      | Some (B_int (a, ka)), Some (B_int (b, kb)) ->
        bool_out ka kb (fun j -> cmp a.(j) b.(j))
      | Some (B_float (a, ka)), Some (B_float (b, kb)) ->
        bool_out ka kb (fun j -> cmp (compare a.(j) b.(j)) 0)
      | Some (B_int (a, ka)), Some (B_float (b, kb)) ->
        bool_out ka kb (fun j -> cmp (compare (float_of_int a.(j)) b.(j)) 0)
      | Some (B_float (a, ka)), Some (B_int (b, kb)) ->
        bool_out ka kb (fun j -> cmp (compare a.(j) (float_of_int b.(j))) 0)
      | Some (B_str (a, ka)), Some (B_str (b, kb)) ->
        bool_out ka kb (fun j -> cmp (String.compare a.(j) b.(j)) 0)
      | Some (B_bool (a, ka)), Some (B_bool (b, kb)) ->
        bool_out ka kb (fun j -> cmp (compare a.(j) b.(j)) 0)
      | _ -> None)))
    | Expr.Binop (Expr.Concat, l, r) -> (
      match bc l, bc r with
      | Some (B_str (a, ka)), Some (B_str (b, kb)) ->
        let out = Array.make bs "" in
        Some
          (B_str
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 kb ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- a.(j) ^ b.(j)
                 done ))
      | _ -> None)
    | Expr.Binop (Expr.Like, l, r) -> (
      match dict_of l, r with
      (* LIKE over a promoted string column: match the pattern once per
         dictionary entry at compile time, then the kernel is one array
         lookup per lane. *)
      | Some (codes, dict), Expr.Const (Value.String pat) ->
        let ok = Array.map (fun entry -> Expr.like ~pattern:pat entry) dict in
        let out = Array.make bs false in
        Some
          (B_bool
             ( out,
               fun ~base ~sel ~n ->
                 Counters.add_dict_probes 1;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- ok.(codes.(base + j))
                 done ))
      | _ -> (
        match bc l, bc r with
        | Some (B_str (a, ka)), Some (B_str (b, kb)) ->
          let out = Array.make bs false in
          Some
            (B_bool
               ( out,
                 fun ~base ~sel ~n ->
                   ka ~base ~sel ~n;
                   kb ~base ~sel ~n;
                   for i = 0 to n - 1 do
                     let j = sel.(i) in
                     out.(j) <- Expr.like ~pattern:b.(j) a.(j)
                   done ))
        | _ -> None))
    | Expr.Unop (Expr.Neg, x) -> (
      match bc x with
      | Some (B_int (a, ka)) ->
        let out = Array.make bs 0 in
        Some
          (B_int
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- -a.(j)
                 done ))
      | Some (B_float (a, ka)) ->
        let out = Array.make bs 0. in
        Some
          (B_float
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- -.a.(j)
                 done ))
      | _ -> None)
    | Expr.Unop (Expr.Not, x) -> (
      match bc x with
      | Some (B_bool (a, ka)) ->
        let out = Array.make bs false in
        Some
          (B_bool
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- not a.(j)
                 done ))
      | _ -> None)
    | Expr.Unop (Expr.To_float, x) -> (
      match bc x with
      | Some (B_int (a, ka)) ->
        let out = Array.make bs 0. in
        Some
          (B_float
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- float_of_int a.(j)
                 done ))
      | Some (B_float _) as c -> c
      | _ -> None)
    | Expr.Unop (Expr.To_int, x) -> (
      match bc x with
      | Some (B_int _) as c -> c
      | Some (B_float (a, ka)) ->
        let out = Array.make bs 0 in
        Some
          (B_int
             ( out,
               fun ~base ~sel ~n ->
                 ka ~base ~sel ~n;
                 for i = 0 to n - 1 do
                   let j = sel.(i) in
                   out.(j) <- int_of_float a.(j)
                 done ))
      | _ -> None)
    | Expr.Unop (Expr.Is_null, _)
    | Expr.If _ | Expr.Record_ctor _ | Expr.Coll_ctor _ ->
      (* conditionals, null tests and constructors keep the scalar lane *)
      None)

(* Batch join-probe support: stage an integer join-key expression as a
   (buffer, kernel) pair so the probe loop can fill a whole key array per
   batch (the leaf's lane fill when the key is a plain field). When no batch
   kernel applies but the scalar lane yields a typed int closure, a
   seek-then-eval shim keeps the probe batched anyway. *)
let batch_int_fill (cenv : cenv) ~batch_size ~(seek : int -> unit) (e : Expr.t) :
    (int array * bkernel) option =
  match compile_batch cenv ~batch_size e with
  | Some (B_int (buf, k)) -> Some (buf, k)
  | Some _ -> None
  | None -> (
    match compile cenv e with
    | C_int g ->
      let buf = Array.make batch_size 0 in
      let fill = Access.shim_fill seek g in
      Some (buf, fun ~base ~sel ~n -> fill base buf ~sel ~n)
    | _ | (exception Perror.Plan_error _) -> None)
