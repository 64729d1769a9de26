open Proteus_model
open Proteus_plugin
module Plan = Proteus_algebra.Plan
module Fingerprint = Proteus_algebra.Fingerprint

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* Growable boxed vector for materialized join sides. *)
module Vec = struct
  type t = { mutable a : Value.t array; mutable n : int }

  let create () = { a = Array.make 64 Value.Null; n = 0 }

  let clear t = t.n <- 0

  let push t v =
    if t.n >= Array.length t.a then begin
      let bigger = Array.make (2 * t.n) Value.Null in
      Array.blit t.a 0 bigger 0 t.n;
      t.a <- bigger
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n

  (* Bulk assembly: grow once to the announced total, then blit whole
     segments — the segments-then-blit idiom of parallel materialization. *)
  let reserve t extra =
    let need = t.n + extra in
    if need > Array.length t.a then begin
      let bigger = Array.make (max need (2 * t.n)) Value.Null in
      Array.blit t.a 0 bigger 0 t.n;
      t.a <- bigger
    end

  let append t (src : t) =
    reserve t src.n;
    Array.blit src.a 0 t.a t.n src.n;
    t.n <- t.n + src.n
end

(* Unboxed int counterpart of [Vec], for parallel build-side key buffers. *)
module IVec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push t v =
    if t.n >= Array.length t.a then begin
      let bigger = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 bigger 0 t.n;
      t.a <- bigger
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1
end

let all_exprs = Proteus_algebra.Analysis.all_exprs

(* Internal fan-out for join-build work (build-side materialization,
   partitioned clustering). The caller's domain count is an explicit request
   for the probe pipeline; the build fan-out is our implementation choice,
   and fanning out wider than the hardware only buys minor-GC barrier syncs
   — so cap it at the machine's core count. [PROTEUS_PAR_BUILD=1] forces the
   requested width (differential tests exercise the partitioned paths on
   any box). *)
let build_fan requested =
  match Sys.getenv_opt "PROTEUS_PAR_BUILD" with
  | Some ("1" | "force") -> requested
  | _ -> min requested (Domain.recommended_domain_count ())

let rec plan_has_join (p : Plan.t) =
  match p with
  | Plan.Join _ -> true
  | p -> List.exists plan_has_join (Plan.children p)

(* Root pipeline drives attribute to the Scan phase only when no join sits
   on the pipeline — join-bearing pipelines split their time into Build and
   Probe instead. *)
let drive_phase has_join f = if has_join then f () else Counters.time Counters.Scan f

(* A join's build-side state plus its probe recipe. The template (worker 0,
   or the serial consumer above a splice) fills it and, on a fleet spine,
   publishes it for the probe-only workers > 0: the materialized payload
   columns and the finished lookup structure are read-only during the probe
   phase, and the lane and key mode the template's probe compile chose are
   the ones every instance follows. *)
type shared_join = {
  sj_cols : (string * (string * Value.t array ref) list) list;
      (** per build-side binding: (path, materialized column) pairs *)
  sj_rows : int ref;
  sj_radix : Radix.t option ref;
  sj_table : int list VH.t;
  sj_kind : Plan.join_kind;
  sj_residual : Expr.t;
  sj_left_key : Expr.t option;  (** the probe key; [None] probes by nested loop *)
  sj_int_build : bool;  (** every build producer's key sits in the int lane *)
  mutable sj_mode : [ `Radix | `Boxed | `Loop ];
  mutable sj_lane : [ `Batch | `Spill | `Tuple ];
  sj_ikeys : int array ref;
      (** alias of the build's int-key array, trimmed exact (meaningful when
          [sj_mode] is [`Radix]) — pruning summarizes it after the build
          phase *)
}

let prune_join (sj : shared_join) : Prune.join =
  {
    kind = sj.sj_kind;
    rows = !(sj.sj_rows);
    probe_key = (match sj.sj_mode with `Radix -> sj.sj_left_key | _ -> None);
    keys = !(sj.sj_ikeys);
  }

(* Per-pipeline-instance fleet state. Worker 0 is the template: it compiles
   build sides and publishes [shared_join]s; workers > 0 compile probe-only
   spines against them. Every scan a compile reaches is the driving scan of
   some fleet's spine: build sides run as fleets of their own. *)
type par = {
  par_worker : int;
  par_disp : Pool.Dispenser.t;
  par_morsel : int ref;  (** index of the morsel this worker is scanning *)
  par_joins : (int, shared_join) Hashtbl.t;
  par_join_ctr : int ref;  (** spine joins seen so far by this instance *)
  par_builds : (unit -> unit) list ref;
      (** build phases the template registers; run serially before fan-out *)
  par_fill : Registry.fill_session option;
      (** shared segmented-fill session of the driving scan (cold run):
          every worker's view fills per-morsel segments into it; the fleet
          driver arms it before the run and commits (or releases) it after —
          see [Registry.fill_session] *)
  par_prune : Prune.t;
      (** the driving scan's pruning handle, shared by every instance: the
          template feeds it the promotion signal; the fleet driver arms it
          and hands its skip test to the dispenser *)
}

type ctx = {
  reg : Registry.t;
  cenv : Exprc.cenv;
  slots : (string * Value.t ref) list;
      (** the engine's parameter slots — shared by every cenv this compile
          creates (nested fleet builds included), so one rebind reaches all
          staged closures *)
  required : (string * [ `Whole | `Paths of string list ]) list;
  par : par option;
      (** [None] only for the serial consumer above a spliced fleet *)
  domains : int;  (** the query's requested width, for build fan-out *)
  batch : int option;
      (** batch-lane size for scan→select→...→aggregate fragments;
          [None] = tuple lane only *)
  splice : (Plan.t * (unit -> (unit -> unit) -> unit -> unit)) option;
      (** parallelism substitution: when the serial compile reaches this
          exact plan node, the provided maker supplies its producer (a
          fleet behind a serial replay) instead of compiling it *)
}

(* Parameter slots: one shared [Value.t ref] per parameter name, registered
   into every compilation environment the engine creates (per-worker fleet
   instances, splice consumers) so a single rebind re-arms them all — the
   compiled closures read the slot at evaluation time. *)
let new_cenv (slots : (string * Value.t ref) list) : Exprc.cenv =
  let cenv : Exprc.cenv = Hashtbl.create 16 in
  List.iter
    (fun (p, r) -> Hashtbl.replace cenv (Exprc.param_key p) (Exprc.Param_repr r))
    slots;
  cenv

(* The fleet instance a scan is compiled in: only a fleet drives a scan. *)
let spine ctx =
  match ctx.par with
  | Some p -> p
  | None -> Perror.plan_error "scan compiled outside a fleet"

(* The morsel loop of a fleet's driving scan: run [range] over each row
   range the dispenser hands this worker until its cursor is dry. The
   dispenser has already dropped the morsels pruning refutes; the morsel
   index keys the worker's per-morsel cells and its fault cell. *)
let morsel_loop (p : par) (range : lo:int -> hi:int -> unit) =
  let rec loop () =
    match Pool.Dispenser.next ~worker:p.par_worker p.par_disp with
    | None -> ()
    | Some (m, lo, hi) ->
      Fault.check_cancel ();
      p.par_morsel := m;
      Fault.set_morsel m;
      range ~lo ~hi;
      loop ()
  in
  loop ()

let subset vars bound = List.for_all (fun v -> List.mem v bound) vars

(* Find an equi-join conjunct splitting cleanly across the two sides. *)
let extract_equi pred left_bound right_bound =
  List.find_map
    (fun c ->
      match (c : Expr.t) with
      | Expr.Binop (Expr.Eq, l, r) ->
        let fl = Expr.free_vars l and fr = Expr.free_vars r in
        if subset fl left_bound && subset fr right_bound then Some (l, r)
        else if subset fl right_bound && subset fr left_bound then Some (r, l)
        else None
      | _ -> None)
    (Expr.conjuncts pred)

(* The payload a join materializes for its build side: one boxed vector per
   (binding, path) the ancestors read. *)
type payload_slot = {
  ps_binding : string;
  ps_path : string;  (* "" = whole record *)
  ps_vec : Vec.t;
  ps_arr : Value.t array ref; (* swapped in after materialization *)
  ps_packable : bool;
  ps_ty : Ptype.t option;     (* for packing to a cache column *)
}

(* What a scan binding feeds downstream: its routed paths, plus whether the
   whole record is consumed (which a skipping probe must then decode). *)
let scan_required ctx binding =
  match List.assoc_opt binding ctx.required with
  | Some (`Paths ps) -> (ps, false)
  | Some `Whole -> ([], true)
  | None -> ([], false)

(* Per-match emission at a join probe: position the materialized-row
   cursor, apply the residual, feed the consumer; reports whether the row
   qualified (for outer-join padding). *)
let make_emit ~pred_c ~(m_cur : int ref) ~(consumer : unit -> unit) : int -> bool =
  match pred_c with
  | None ->
    fun row ->
      m_cur := row;
      consumer ();
      true
  | Some pred_c ->
    fun row ->
      m_cur := row;
      Counters.add_branch_points 1;
      if pred_c () then begin
        consumer ();
        true
      end
      else false

(* The tuple-lane probe over the (finished) build state: radix index for
   unboxed int keys, boxed table otherwise, nested loop when no equi key
   exists. *)
let join_probe (sj : shared_join) ~key ~(null_row : bool ref) ~(emit : int -> bool)
    ~(consumer : unit -> unit) : unit -> unit =
  let pad matched =
    if sj.sj_kind = Plan.Left_outer && not matched then begin
      null_row := true;
      consumer ();
      null_row := false
    end
  in
  match key with
  | `Radix lg ->
    (* both sides integer-typed: radix probe, no boxing per tuple *)
    fun () ->
      let k = lg () in
      let matched = ref false in
      (match !(sj.sj_radix) with
      | Some r -> Radix.iter r k ~f:(fun row -> if emit row then matched := true)
      | None -> ());
      pad !matched
  | `Boxed kv ->
    fun () ->
      let k = kv () in
      let matched = ref false in
      (match k with
      | Value.Null -> ()
      | k -> (
        match VH.find_opt sj.sj_table k with
        | Some rows -> List.iter (fun r -> if emit r then matched := true) rows
        | None -> ()));
      pad !matched
  | `Loop ->
    fun () ->
      let n = !(sj.sj_rows) in
      let matched = ref false in
      for row = 0 to n - 1 do
        if emit row then matched := true
      done;
      pad !matched

(* The vectorized probe: the key kernel has already filled [kbuf] for the
   surviving lanes; each lane probes the radix index directly. The scan
   cursor seeks to a lane only when it actually matches (or pads), so
   non-matching lanes cost one array read and one index lookup — no cursor
   movement, no spill into the tuple lane. *)
let batch_probe_sink (sj : shared_join) ~(kbuf : int array) ~(seek : int -> unit)
    ~(null_row : bool ref) ~(emit : int -> bool) ~(consumer : unit -> unit) :
    base:int -> sel:int array -> n:int -> unit =
 fun ~base ~sel ~n ->
  let r = !(sj.sj_radix) in
  for i = 0 to n - 1 do
    let j = sel.(i) in
    let matched = ref false in
    let seeked = ref false in
    (match r with
    | Some r ->
      Radix.iter r
        kbuf.(j)
        ~f:(fun row ->
          if not !seeked then begin
            seeked := true;
            seek (base + j)
          end;
          if emit row then matched := true)
    | None -> ());
    if sj.sj_kind = Plan.Left_outer && not !matched then begin
      if not !seeked then seek (base + j);
      null_row := true;
      consumer ();
      null_row := false
    end
  done

(* ------------------------------------------------------------------ *)
(* The batch lane (DESIGN.md Section 8).

   A pipeline fragment of shape Select* over Scan compiles to batch form:
   the scan emits fixed-size batches and every Select becomes a filter
   that compacts a selection vector in place — data never moves, only the
   selection shrinks. The fragment's consumer is either a batch sink
   (array-level aggregate loops at a Reduce root) or a spill boundary that
   seeks the cursor to each surviving lane and resumes the tuple-at-a-time
   consumer chain: the first operator that is not batch-capable (join,
   unnest, group-by, sort, ...) sees exactly the serial tuple protocol.
   The lane is chosen here, once, at engine-generation time. *)

let default_batch_size = 1024

(* One filter: compacts the first [n] entries of [sel] in place against the
   elements at [base + sel.(i)]; returns the surviving count. *)
type bfilter = base:int -> sel:int array -> n:int -> int

(* One plan node's worth of filtering. Selects count a branch point per
   input lane (the tuple lane counts one per tuple reaching the node);
   embedded Reduce predicates do not, as in the tuple lane. *)
type bnode = { bn_branch : bool; bn_filters : bfilter list }

(* A batch-compiled fragment: the driving source (its cursor serves spill
   seeks and the join-key shim), the morsel's batch driver, and the filter nodes in
   scan-to-root order. *)
type bfrag = {
  bf_src : Source.t;
  bf_range :
    lo:int -> hi:int -> batch:int -> on_batch:(base:int -> len:int -> unit) -> unit;
  bf_nodes : bnode list;
  bf_probe : (unit -> unit) option;
      (* Skip_row commit test of the driving scan (None: infallible source) *)
  bf_fill : (base:int -> sel:int array -> n:int -> unit) option;
      (* cold-run cache fill: one segment per batch, filled on the
         probe-surviving selection before query filters narrow it *)
  bf_dataset : string;  (* for fault attribution *)
}

(* Compile one predicate into per-conjunct filters: a vectorized kernel
   plus compaction when the conjunct batch-compiles to the bool lane,
   otherwise a seek-per-lane scalar fallback. Splitting per conjunct lets
   one non-vectorizable conjunct fall back alone. *)
let bfilter_node ctx ~bs ~(src : Source.t) ~branch pred : bnode =
  let filter c : bfilter =
    match Exprc.compile_batch ctx.cenv ~batch_size:bs c with
    | Some (Exprc.B_bool (buf, k)) ->
      fun ~base ~sel ~n ->
        k ~base ~sel ~n;
        let m = ref 0 in
        for i = 0 to n - 1 do
          let j = sel.(i) in
          if buf.(j) then begin
            sel.(!m) <- j;
            incr m
          end
        done;
        !m
    | Some _ | None ->
      let pc = Exprc.to_pred (Exprc.compile ctx.cenv c) in
      let seek = src.Source.seek in
      fun ~base ~sel ~n ->
        let m = ref 0 in
        for i = 0 to n - 1 do
          let j = sel.(i) in
          seek (base + j);
          if pc () then begin
            sel.(!m) <- j;
            incr m
          end
        done;
        !m
  in
  { bn_branch = branch; bn_filters = List.map filter (Expr.conjuncts pred) }

let apply_bnodes nodes ~base ~(sel : int array) n0 =
  let n = ref n0 in
  List.iter
    (fun node ->
      if node.bn_branch && !n > 0 then Counters.add_branch_points !n;
      List.iter
        (fun (f : bfilter) -> if !n > 0 then n := f ~base ~sel ~n:!n)
        node.bn_filters)
    nodes;
  !n

(* Lane bookkeeping and promotion feedback tick once per pipeline, on the
   template instance, not once per worker instance. *)
let template ctx = match ctx.par with Some p -> p.par_worker = 0 | None -> true

let count_lane ctx add = if template ctx then add 1

(* One more predicate over the driving scan's rows (a Select of a
   Select*-over-Scan spine, or a root Reduce predicate over one): feed the
   promotion signal, in either lane. The pruning handle belongs to the
   fleet drive, which collected every spine predicate already. *)
let note_pred ctx pred = if template ctx then Prune.note (spine ctx).par_prune pred

(* Drive a fragment: emit batches morsel by morsel, reset the selection to
   the identity, run the filter nodes, hand the surviving lanes to [sink]. *)
let bfrag_driver ctx (frag : bfrag) ~bs
    (sink : base:int -> sel:int array -> n:int -> unit) : unit -> unit =
  let sel = Array.make bs 0 in
  let seek = frag.bf_src.Source.seek in
  let on_batch ~base ~len =
    Fault.check_cancel ();
    Counters.add_tuples len;
    Counters.add_batches 1;
    Counters.add_batch_rows len;
    (* Under Skip_row, probe each lane before the identity selection is
       built: faulty rows never enter the selection vector, so the filter
       kernels and every downstream fill touch only committed lanes and the
       batch lane needs no per-kernel fault handling. *)
    let n0 =
      match frag.bf_probe with
      | Some probe when Fault.skipping () ->
        let m = ref 0 in
        for j = 0 to len - 1 do
          seek (base + j);
          match probe () with
          | () ->
            sel.(!m) <- j;
            incr m
          | exception e when Fault.recoverable e ->
            Fault.record_skip ~source:frag.bf_dataset ~row:(base + j) e
        done;
        !m
      | _ ->
        for j = 0 to len - 1 do
          sel.(j) <- j
        done;
        len
    in
    (* Cold-run fill, on the probe-surviving lanes only: query filters below
       must not narrow what the cache stores, while Skip_row compaction must
       (the recorded errors quarantine the session at commit) — exactly the
       tuple lane's fill-after-probe ordering, one segment per batch. *)
    (match frag.bf_fill with
    | Some fill -> fill ~base ~sel ~n:n0
    | None -> ());
    let n = apply_bnodes frag.bf_nodes ~base ~sel n0 in
    Counters.add_batch_selected n;
    if n > 0 then sink ~base ~sel ~n
  in
  let p = spine ctx in
  fun () -> morsel_loop p (fun ~lo ~hi -> frag.bf_range ~lo ~hi ~batch:bs ~on_batch)

(* The spill boundary: surviving lanes re-enter the tuple lane by cursor
   seek, so every downstream closure is exactly the serial one. *)
let bfrag_spill ctx (frag : bfrag) ~bs : (unit -> unit) -> unit -> unit =
  count_lane ctx Counters.add_lanes_batch;
  let seek = frag.bf_src.Source.seek in
  fun consumer ->
    bfrag_driver ctx frag ~bs (fun ~base ~sel ~n ->
        for i = 0 to n - 1 do
          seek (base + sel.(i));
          consumer ()
        done)

(* Whether [compile_bfrag] takes this spine: Select*-over-Scan. *)
let rec batchable_shape (p : Plan.t) =
  match p with
  | Plan.Scan _ -> true
  | Plan.Select { input; _ } -> batchable_shape input
  | _ -> false

(* Batch-compile a Select*-over-Scan fragment; [None] falls back to the
   tuple lane (batch disabled, unsupported shape). *)
let rec compile_bfrag (ctx : ctx) (p : Plan.t) : bfrag option =
  match ctx.batch with
  | None -> None
  | Some bs -> (
    match p with
    | Plan.Scan { dataset; binding; fields = _ } ->
      (* worker view; on a cold run it fills the fleet's shared session
         (the fleet driver owns the commit lifecycle) *)
      let pp = spine ctx in
      let required, whole = scan_required ctx binding in
      let scan =
        Registry.scan_view ctx.reg ~whole ~dataset ~required ?session:pp.par_fill
      in
      Hashtbl.replace ctx.cenv binding (Exprc.Scan_repr scan.Registry.sc_source);
      Some
        {
          bf_src = scan.Registry.sc_source;
          bf_range = scan.Registry.sc_range_batches;
          bf_nodes = [];
          bf_probe = scan.Registry.sc_probe;
          bf_fill = scan.Registry.sc_fill_sel;
          bf_dataset = scan.Registry.sc_dataset;
        }
    | Plan.Select { pred; input } -> bfrag_filter ctx ~bs (compile_bfrag ctx input) pred
    | _ -> None)

and bfrag_filter ctx ~bs frag pred =
  match frag with
  | None -> None
  | Some f ->
    note_pred ctx pred;
    Some
      {
        f with
        bf_nodes = f.bf_nodes @ [ bfilter_node ctx ~bs ~src:f.bf_src ~branch:true pred ];
      }

(* ------------------------------------------------------------------ *)
(* Fleet compilation: N pipeline instances over a shared morsel dispenser.
   Shared by the root drivers (par_reduce and friends, below), the splices
   below a breaker, and every join build inside [compile_join]. *)

(* What drives the fan-out: the row count the dispenser carves into
   morsels, the driving scan's fill session on a cold run, and its pruning
   handle. *)
type drive = {
  dr_count : int;
  dr_fill : Registry.fill_session option;
  dr_prune : Prune.t;
      (** pruning handle of the driving scan, armed by the fleet driver
          after the build phases, so join-key tests see the materialized
          keys, and before any morsel is dispensed *)
}

(* The pipeline breaker closest to the driving scan; everything below it
   streams and can fan out, everything above it runs serially over the
   merged stream. *)
let rec bottom_breaker (p : Plan.t) : Plan.t option =
  match p with
  | Plan.Scan _ -> None
  | Plan.Select { input; _ } | Plan.Project { input; _ } | Plan.Unnest { input; _ } ->
    bottom_breaker input
  | Plan.Join { left; _ } -> bottom_breaker left
  | Plan.Nest { input; _ } | Plan.Sort { input; _ } | Plan.Reduce { input; _ } -> (
    match bottom_breaker input with Some b -> Some b | None -> Some p)

(* Walk a breaker-free spine to the driving scan. A cache-filling scan
   fills per-morsel segments, committed by the fleet driver. [preds]
   accumulates the predicates that apply to every row the driving scan
   emits — spine Selects plus (for the Reduce drivers) the root predicate —
   so the scan's pruning handle can test them. Crossing a Project or Unnest
   drops them: those nodes can rebind names, and pushdown already sank
   scan-only conjuncts below them. *)
let rec spine_drive ?(preds = []) (actx : ctx) (p : Plan.t) : drive =
  match p with
  | Plan.Scan { dataset; binding; _ } ->
    let required, whole = scan_required actx binding in
    let scan = Registry.scan actx.reg ~whole ~dataset ~required in
    {
      dr_count = scan.Registry.sc_count;
      dr_fill = scan.Registry.sc_fill;
      dr_prune =
        Prune.create actx.reg ~slots:actx.slots ~dataset ~binding
          ~filling:(scan.Registry.sc_fill <> None) preds;
    }
  | Plan.Select { pred; input; _ } -> spine_drive ~preds:(pred :: preds) actx input
  | Plan.Project { input; _ } | Plan.Unnest { input; _ } -> spine_drive actx input
  | Plan.Join { left; _ } -> spine_drive ~preds actx left
  | Plan.Nest _ | Plan.Sort _ | Plan.Reduce _ ->
    Perror.plan_error "spine analysis reached a breaker"

(* Compile the pipeline instances of [subplan] — worker 0 first: the
   template compiles join build sides and publishes their state for the
   probe-only instances. [finish w ctx par compiled] extracts whatever the
   caller needs from each instance. Returns the instances plus the per-run
   fleet driver: rearm the dispenser, stage the template (registering the
   run's build phases), run the builds serially, stage the workers, fan
   out. [worker_runs] pins worker [w] to the [w]-th contiguous run of the
   dispenser's morsels instead of the shared cursor, for drivers that keep
   per-worker state across the whole scan. *)
let compile_instances (actx : ctx) ~width ?(worker_runs = false) ~(drive : drive) subplan
    ~stage ~finish =
  let disp = Pool.Dispenser.create () in
  let builds = ref [] in
  let joins : (int, shared_join) Hashtbl.t = Hashtbl.create 4 in
  Prune.add_joins drive.dr_prune (fun () ->
      Hashtbl.fold (fun _ sj acc -> prune_join sj :: acc) joins []);
  let mk w =
    let p =
      {
        par_worker = w;
        par_disp = disp;
        par_morsel = ref w;
        par_joins = joins;
        par_join_ctr = ref 0;
        par_builds = builds;
        par_fill = drive.dr_fill;
        par_prune = drive.dr_prune;
      }
    in
    let ctx =
      {
        actx with
        cenv = new_cenv actx.slots;
        par = Some p;
        splice = None;
      }
    in
    let compiled = stage ctx subplan in
    finish ctx p compiled
  in
  let template = mk 0 in
  let instances = Array.init width (fun w -> if w = 0 then template else mk w) in
  let run_fleet wire =
    Pool.Dispenser.reset disp ~runs:(if worker_runs then width else 1) ~total:drive.dr_count;
    builds := [];
    (* Cold run: arm the shared fill session before the fan-out so every
       worker's per-morsel segments land in a fresh run; commit them in row
       order after a clean run, release (quarantine) on any raise — the
       install-on-commit contract, spanning the whole fleet. *)
    (match drive.dr_fill with
    | Some s -> Registry.session_arm s
    | None -> ());
    let runners = Array.make width (fun () -> ()) in
    runners.(0) <- wire 0 instances.(0);
    List.iter (fun b -> Counters.time Counters.Build b) (List.rev !builds);
    (* pruning arms here: after the builds (join-key tests read the
       materialized build keys) and before the dispenser hands out any
       morsel — the pre-dispatch prune of scatter-gather execution *)
    Prune.arm drive.dr_prune;
    Pool.Dispenser.set_skip disp (Prune.skip drive.dr_prune);
    for w = 1 to width - 1 do
      runners.(w) <- wire w instances.(w)
    done;
    (match drive.dr_fill with
    | None -> Pool.run ~domains:width (fun w -> runners.(w) ())
    | Some s ->
      (try Pool.run ~domains:width (fun w -> runners.(w) ())
       with e ->
         Registry.session_release s;
         raise e);
      Counters.time Counters.Fill (fun () -> Registry.session_commit s));
    Counters.add_morsels (Pool.Dispenser.dispensed disp)
  in
  (instances, disp, run_fleet)

(* Per-morsel cells of one fleet run. [cell_of cells w ~morsels morsel
   fresh] wires worker [w]'s accessor: it returns the cell of the morsel
   [morsel] names, opening it with [fresh] the first time the worker feeds
   that morsel. [iter_cells] visits the cells in morsel order, then worker
   order (a morsel reaches one worker): the scan order, whichever worker
   ran which morsel. *)
let cell_of (cells : 'c option array array) w ~morsels (morsel : int ref)
    (fresh : unit -> 'c) : unit -> 'c =
  let buckets = Array.make morsels None in
  cells.(w) <- buckets;
  fun () ->
    match buckets.(!morsel) with
    | Some c -> c
    | None ->
      let c = fresh () in
      buckets.(!morsel) <- Some c;
      c

let iter_cells (cells : 'c option array array) f =
  let morsels = Array.fold_left (fun n b -> max n (Array.length b)) 0 cells in
  for mi = 0 to morsels - 1 do
    Array.iter (fun b -> if mi < Array.length b then Option.iter f b.(mi)) cells
  done

let merge_parts monoids acc parts =
  List.map2 (fun m (a, b) -> Agg.merge m a b) monoids (List.combine acc parts)

(* Merge per-worker groups into key order and emit each group.
   [groups.(w)] lists worker [w]'s (key, accumulators) pairs. A stable sort
   of their positions, concatenated in worker order, puts each key's
   accumulators together in worker order, and their partials fold in that
   order: the association depends on the domain count alone. [emit] gets
   the key and the merged partials. *)
let merge_groups monoids ~cmp groups emit =
  let entries = Array.concat (Array.to_list (Array.map Array.of_list groups)) in
  let key i = fst entries.(i) in
  let partials i = List.map (fun (a : Agg.instance) -> a.partial ()) (snd entries.(i)) in
  let perm = Array.init (Array.length entries) Fun.id in
  Array.stable_sort (fun i j -> cmp (key i) (key j)) perm;
  let n = Array.length perm in
  let i = ref 0 in
  while !i < n do
    let k = key perm.(!i) in
    let parts = ref (partials perm.(!i)) in
    incr i;
    while !i < n && cmp k (key perm.(!i)) = 0 do
      parts := merge_parts monoids !parts (partials perm.(!i));
      incr i
    done;
    emit k !parts
  done

(* A group-by key lane: a single int-typed key groups over raw ints, no
   boxing per row; any other key list groups over boxed lists. [reader]
   stages a key reader from one instance's compiled keys; [fields] turns a
   key back into the group's key fields. *)
module type GROUP_KEY = sig
  type t

  module H : Hashtbl.S with type key = t

  val cmp : t -> t -> int
  val reader : Exprc.compiled list -> unit -> t
  val fields : t -> (string * Value.t) list
end

let group_key (keys : (string * Expr.t) list) ~int_key : (module GROUP_KEY) =
  if int_key then
    (module struct
      type t = int

      module H = IH

      let cmp = Int.compare

      let reader = function [ Exprc.C_int g ] -> g | _ -> assert false
      let kname = fst (List.hd keys)
      let fields k = [ (kname, Value.Int k) ]
    end)
  else
    (module struct
      type t = Value.t

      module H = VH

      let cmp = Value.compare

      let reader cs =
        let gs = List.map Exprc.to_val cs in
        fun () -> Value.Coll (Ptype.List, List.map (fun g -> g ()) gs)

      let fields = function
        | Value.Coll (_, kvs) -> List.map2 (fun (n, _) v -> (n, v)) keys kvs
        | _ -> assert false
    end)

(* A group table over key lane [H]: [feed] folds the current row, when it
   qualifies, into its group's accumulators, opening the group (and
   reporting it to [opened]) on first sight; [clear] empties the table for
   the next run. *)
let group_table (type k) (module H : Hashtbl.S with type key = k) (kget : unit -> k) ~pred_c
    ~factories ~nkeys ~(opened : k -> Agg.instance list -> unit) =
  let tbl = H.create 64 in
  let clear () = H.reset tbl in
  let feed () =
    if pred_c () then begin
      let k = kget () in
      let insts =
        match H.find_opt tbl k with
        | Some insts -> insts
        | None ->
          let insts = List.map (fun f -> f ()) factories in
          H.add tbl k insts;
          opened k insts;
          Counters.add_materialized nkeys;
          insts
      in
      List.iter (fun (i : Agg.instance) -> i.step ()) insts
    end
  in
  (clear, feed)

(* One producer of a join's build side: its compiled pipeline, the build
   key and payload compiled against that pipeline, and the cursor naming
   the morsel it is scanning. *)
type build_src = {
  bs_run : (unit -> unit) -> unit -> unit;
  bs_key : Exprc.compiled option;
  bs_pays : Exprc.compiled array;
  bs_morsel : int ref;
}

let rec compile (ctx : ctx) (p : Plan.t) : (unit -> unit) -> unit -> unit =
  match ctx.splice with
  | Some (target, mk) when target == p -> mk ()
  | _ -> compile_node ctx p

and compile_node (ctx : ctx) (p : Plan.t) : (unit -> unit) -> unit -> unit =
  match p with
  | Plan.Scan { dataset; binding; fields = _ } ->
    (* the driving scan of a fleet: a private cursor view over the shared
       index, driven by the morsel dispenser; on a cold run the view also
       fills per-morsel cache segments into the shared session *)
    let p = spine ctx in
    count_lane ctx Counters.add_lanes_tuple;
    let required, whole = scan_required ctx binding in
    let scan = Registry.scan_view ctx.reg ~whole ~dataset ~required ?session:p.par_fill in
    Hashtbl.replace ctx.cenv binding (Exprc.Scan_repr scan.Registry.sc_source);
    fun consumer () ->
      let on_tuple () =
        Counters.add_tuples 1;
        consumer ()
      in
      morsel_loop p (scan.Registry.sc_range ~on_tuple)
  | Plan.Select { pred; input } -> (
    match compile_bfrag ctx p with
    | Some frag -> bfrag_spill ctx frag ~bs:(Option.get ctx.batch)
    | None ->
      (* the promotion signal [bfrag_filter] feeds, when the batch lane is off *)
      if batchable_shape input then note_pred ctx pred;
      let run_input = compile ctx input in
      let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
      fun consumer ->
        run_input (fun () ->
            Counters.add_branch_points 1;
            if pred_c () then consumer ()))
  | Plan.Project { binding; fields; input } ->
    let run_input = compile ctx input in
    let getters =
      List.map (fun (n, e) -> (n, Exprc.to_val (Exprc.compile ctx.cenv e))) fields
    in
    let reg = ref Value.Null in
    Hashtbl.replace ctx.cenv binding (Exprc.Boxed_repr reg);
    fun consumer ->
      run_input (fun () ->
          reg := Value.record (List.map (fun (n, g) -> (n, g ())) getters);
          consumer ())
  | Plan.Unnest { outer; path; binding; pred; input } -> compile_unnest ctx ~outer ~path ~binding ~pred ~input
  | Plan.Nest { keys; aggs; pred; binding; input } ->
    if ctx.par <> None then
      Perror.plan_error "Nest on a fleet spine (the driver must splice below it)";
    let run_input = compile ctx input in
    let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
    let ckeys = List.map (fun (_, e) -> Exprc.compile ctx.cenv e) keys in
    let (module K : GROUP_KEY) =
      group_key keys ~int_key:(match ckeys with [ Exprc.C_int _ ] -> true | _ -> false)
    in
    let factories =
      List.map
        (fun (a : Plan.agg) -> Agg.factory a.monoid (Exprc.compile ctx.cenv a.expr))
        aggs
    in
    let group_reg = ref Value.Null in
    Hashtbl.replace ctx.cenv binding (Exprc.Boxed_repr group_reg);
    fun consumer ->
      (* groups emit in first-encounter order *)
      let order = ref [] in
      let clear, feed =
        group_table (module K.H) (K.reader ckeys) ~pred_c ~factories ~nkeys:(List.length keys)
          ~opened:(fun k insts -> order := (k, insts) :: !order)
      in
      let feeder = run_input feed in
      fun () ->
        clear ();
        order := [];
        feeder ();
        List.iter
          (fun (k, insts) ->
            let aggs =
              List.map2
                (fun (a : Plan.agg) (i : Agg.instance) -> (a.agg_name, i.value ()))
                aggs insts
            in
            group_reg := Value.record (K.fields k @ aggs);
            consumer ())
          (List.rev !order)
  | Plan.Sort { keys; limit; input } ->
    if ctx.par <> None then
      Perror.plan_error "Sort on a fleet spine (the driver must splice below it)";
    let run_input = compile ctx input in
    let visible = Plan.bindings input in
    (* getters against the live pipeline, compiled before re-registration *)
    let getters =
      List.map (fun b -> Exprc.to_val (Exprc.compile ctx.cenv (Expr.Var b))) visible
    in
    let key_getters =
      List.map (fun (e, d) -> (Exprc.to_val (Exprc.compile ctx.cenv e), d)) keys
    in
    (* above the sort, bindings read from boxed registers *)
    let regs = List.map (fun b -> (b, ref Value.Null)) visible in
    List.iter
      (fun (b, r) -> Hashtbl.replace ctx.cenv b (Exprc.Boxed_repr r))
      regs;
    fun consumer () ->
      let rows = ref [] in
      (run_input (fun () ->
           Counters.add_materialized (List.length visible);
           rows :=
             ( List.map (fun (g, _) -> g ()) key_getters,
               List.map (fun g -> g ()) getters )
             :: !rows))
        ();
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
      let sorted = List.stable_sort cmp (List.rev !rows) in
      let sorted =
        match limit with
        | None -> sorted
        | Some n -> List.filteri (fun i _ -> i < n) sorted
      in
      List.iter
        (fun (_, values) ->
          List.iter2 (fun (_, r) v -> r := v) regs values;
          consumer ())
        sorted
  | Plan.Reduce _ ->
    Perror.plan_error "Reduce below the plan root is not supported"
  | Plan.Join { kind; algo; left; right; left_key; right_key; pred } ->
    compile_join ctx ~kind ~algo ~left ~right ~left_key ~right_key ~pred

and compile_unnest ctx ~outer ~path ~binding ~pred ~input =
  let run_input = compile ctx input in
  (* Fast path: inner unnest of a direct field of a raw scan — iterate the
     structural index's array spans without boxing elements. *)
  let fast =
    if outer then None
    else
      match Exprc.path_of path with
      | Some (v, p) when p <> "" -> (
        match Hashtbl.find_opt ctx.cenv v with
        | Some (Exprc.Scan_repr src) -> (
          match src.Source.unnest p with
          | Some spec -> Some spec
          | None -> None)
        | _ -> None)
      | _ -> None
  in
  match fast with
  | Some spec ->
    (* tell the plug-in which element fields this query reads, so it can
       fuse their extraction into the element scan (Section 5.2) *)
    (match List.assoc_opt binding ctx.required with
    | Some (`Paths ps) -> spec.Source.u_prepare ps
    | Some `Whole | None -> ());
    Hashtbl.replace ctx.cenv binding (Exprc.Unnest_repr spec);
    let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
    fun consumer ->
      run_input (fun () ->
          spec.Source.u_iter ~on_elem:(fun () -> if pred_c () then consumer ()))
  | None ->
    let path_c = Exprc.to_val (Exprc.compile ctx.cenv path) in
    let elem = ref Value.Null in
    Hashtbl.replace ctx.cenv binding (Exprc.Boxed_repr elem);
    let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
    fun consumer ->
      run_input (fun () ->
          let elems =
            match path_c () with
            | Value.Coll (_, es) -> es
            | Value.Null -> []
            | v -> Perror.type_error "unnest over non-collection %a" Value.pp v
          in
          let matched = ref false in
          List.iter
            (fun e ->
              elem := e;
              if pred_c () then begin
                matched := true;
                consumer ()
              end)
            elems;
          if outer && not !matched then begin
            elem := Value.Null;
            consumer ()
          end)

and compile_join ctx ~kind ~algo ~left ~right ~left_key ~right_key ~pred =
  (* On a fleet spine the template instance (worker 0) compiles the build
     side and publishes its materialized state under a per-spine join index;
     worker instances compile probe-only pipelines against it. Spine joins
     are numbered in compile order, which is identical across instances
     because every instance walks the same left spine. A join above a
     spliced breaker builds and probes on the serial consumer. *)
  let share =
    match ctx.par with
    | Some p ->
      let idx = !(p.par_join_ctr) in
      incr p.par_join_ctr;
      Some (p, idx)
    | None -> None
  in
  match share with
  | Some (p, idx) when p.par_worker > 0 ->
    compile_probe ctx (Hashtbl.find p.par_joins idx) ~left
  | _ ->
  let right_bindings = Plan.bindings right in
  (* Payload: what the ancestors (and the residual predicate) read from the
     build side. The global required-paths analysis over-approximates this
     safely. *)
  let payload_exprs =
    List.concat_map
      (fun b ->
        match List.assoc_opt b ctx.required with
        | Some `Whole | None -> [ (b, "", Expr.Var b) ]
        | Some (`Paths ps) ->
          List.map (fun p -> (b, p, Expr.path b (String.split_on_char '.' p))) ps)
      right_bindings
  in
  (* Keys: prefer the optimizer's choice, else extract one here. *)
  let equi =
    match left_key, right_key with
    | Some l, Some r -> Some (l, r)
    | _ -> extract_equi pred (Plan.bindings left) right_bindings
  in
  let use_hash = algo = Plan.Radix_hash && equi <> None in
  (* the build side runs first on producers of its own (a fleet, or a
     serial consumer over a splice); key and payload representations come
     from the template producer, and the unboxed int-key lane needs every
     producer's key in it *)
  let srcs, build_morsels, build_run =
    build_sources ctx right
      ~key:(match equi with Some (_, rk) when use_hash -> Some rk | _ -> None)
      ~pays:(List.map (fun (_, _, e) -> e) payload_exprs)
  in
  let src0 = srcs.(0) in
  let int_build =
    Array.for_all
      (fun src -> match src.bs_key with Some (Exprc.C_int _) -> true | _ -> false)
      srcs
  in
  let prim_ty (c : Exprc.compiled) =
    match c with
    | Exprc.C_int _ -> Some Ptype.Int
    | Exprc.C_float _ -> Some Ptype.Float
    | Exprc.C_bool _ -> Some Ptype.Bool
    | Exprc.C_str _ -> Some Ptype.String
    | Exprc.C_val _ -> None
  in
  let payload : payload_slot list =
    List.mapi
      (fun i (b, path, _) ->
        let ty = prim_ty src0.bs_pays.(i) in
        {
          ps_binding = b;
          ps_path = path;
          ps_vec = Vec.create ();
          ps_arr = ref [||];
          ps_packable = ty <> None;
          ps_ty = ty;
        })
      payload_exprs
  in
  let key_vec = Vec.create () in
  (* Implicit-caching key: fingerprint of the build side wrapped in a
     Project listing exactly what gets materialized (key + payload). *)
  let cache_key =
    let fields =
      ("__key",
       match equi with Some (_, rk) -> rk | None -> Expr.bool true)
      :: List.mapi
           (fun i slot ->
             ( Fmt.str "c%d" i,
               if slot.ps_path = "" then Expr.Var slot.ps_binding
               else Expr.path slot.ps_binding (String.split_on_char '.' slot.ps_path) ))
           payload
    in
    "joinside:" ^ Fingerprint.plan (Plan.Project { binding = "__m"; fields; input = right })
  in
  let key_ty = Option.bind src0.bs_key prim_ty in
  let packable =
    (* a parameterized build side (or key) materializes different rows per
       bound value: its columns must never land in (or be served from) the
       implicit cache — the fingerprint key renders slots, not values *)
    use_hash
    && List.for_all (fun s -> s.ps_packable) payload
    && key_ty <> None
    && (not (Proteus_algebra.Analysis.has_params right))
    && not (match equi with Some (_, rk) -> Expr.has_param rk | None -> false)
  in
  let bias =
    let ranks =
      List.map
        (fun ds ->
          Proteus_catalog.Dataset.bias
            (Proteus_catalog.Catalog.find (Registry.catalog ctx.reg) ds).format)
        (Plan.datasets right)
    in
    List.fold_left
      (fun acc b -> if b > acc then b else acc)
      Proteus_storage.Memory.Arena.Bias_binary ranks
  in
  (* Both index paths compare keys exactly (the radix index on raw ints,
     the boxed table via Value equality), so the equi conjunct needs no
     re-check: the residual predicate drops it, and joins whose other
     conjuncts were pushed below have no per-match predicate at all. *)
  let residual =
    match equi with
    | Some (lk, rk) when use_hash ->
      Expr.conjoin
        (List.filter
           (fun c ->
             match (c : Expr.t) with
             | Expr.Binop (Expr.Eq, a, b) ->
               not
                 ((Expr.equal a lk && Expr.equal b rk)
                 || (Expr.equal a rk && Expr.equal b lk))
             | _ -> true)
           (Expr.conjuncts pred))
    | _ -> pred
  in
  (* The materialized build state lives at the compile stage so probe-only
     worker pipelines can share it read-only; the build phase rearms it at
     the start of every run. *)
  let mat_rows = ref 0 in
  (* boxed fallback table; integer keys use the radix index instead *)
  let table : int list VH.t = VH.create 1024 in
  let radix : Radix.t option ref = ref None in
  let keys = ref [||] in
  let ikeys = ref [||] in
  let by_binding = Hashtbl.create 4 in
  List.iter
    (fun slot ->
      let cols = try Hashtbl.find by_binding slot.ps_binding with Not_found -> [] in
      Hashtbl.replace by_binding slot.ps_binding ((slot.ps_path, slot.ps_arr) :: cols))
    payload;
  let sj =
    {
      sj_cols = Hashtbl.fold (fun b cols acc -> (b, cols) :: acc) by_binding [];
      sj_rows = mat_rows;
      sj_radix = radix;
      sj_table = table;
      sj_kind = kind;
      sj_residual = residual;
      sj_left_key = (match equi with Some (lk, _) when use_hash -> Some lk | _ -> None);
      sj_int_build = int_build;
      (* set by the probe compile below *)
      sj_mode = `Loop;
      sj_lane = `Tuple;
      sj_ikeys = ikeys;
    }
  in
  (match share with Some (p, idx) -> Hashtbl.replace p.par_joins idx sj | None -> ());
  let probe = compile_probe ctx sj ~left in
  (* Build-side materialization: every producer scans its morsels into
     per-(producer, morsel) buffers; the buffers concatenate in morsel
     order — the build input's row order, bit for bit — into the vectors
     the epilogue (cache packing, clustering) works on. A totals pass sizes
     the destinations exactly, then every buffer lands with one
     [Array.blit], and the int-key array comes out exact, so the radix
     build consumes it without a copy. *)
  let materialize () =
    let cells = Array.make (Array.length srcs) [||] in
    let wire w src =
      let key_lane =
        match sj.sj_mode, src.bs_key with
        | `Radix, Some (Exprc.C_int g) -> `Int g
        | `Boxed, Some c -> `Val (Exprc.to_val c)
        | _ -> `None
      in
      let pays = Array.map Exprc.to_val src.bs_pays in
      let npay = Array.length pays in
      let cell =
        cell_of cells w ~morsels:(build_morsels ()) src.bs_morsel (fun () ->
            (ref 0, IVec.create (), Vec.create (), Array.init npay (fun _ -> Vec.create ())))
      in
      let consumer () =
        let count, bik, bkv, bpay = cell () in
        incr count;
        (match key_lane with
        | `Int g -> IVec.push bik (g ())
        | `Val g -> Vec.push bkv (g ())
        | `None -> ());
        Array.iteri
          (fun i g ->
            Vec.push bpay.(i) (g ());
            Counters.add_materialized 1)
          pays
      in
      src.bs_run consumer
    in
    build_run wire;
    let pay_slots = Array.of_list payload in
    let tot_rows = ref 0 and tot_ik = ref 0 and tot_kv = ref 0 in
    let tot_pay = Array.make (Array.length pay_slots) 0 in
    iter_cells cells (fun (count, bik, bkv, bpay) ->
        tot_rows := !tot_rows + !count;
        tot_ik := !tot_ik + bik.IVec.n;
        tot_kv := !tot_kv + bkv.Vec.n;
        Array.iteri (fun i v -> tot_pay.(i) <- tot_pay.(i) + v.Vec.n) bpay);
    mat_rows := !tot_rows;
    if Array.length !ikeys <> !tot_ik then ikeys := Array.make !tot_ik 0;
    Vec.reserve key_vec !tot_kv;
    Array.iteri (fun i n -> Vec.reserve pay_slots.(i).ps_vec n) tot_pay;
    let ik_n = ref 0 in
    iter_cells cells (fun (_, bik, bkv, bpay) ->
        Array.blit bik.IVec.a 0 !ikeys !ik_n bik.IVec.n;
        ik_n := !ik_n + bik.IVec.n;
        Vec.append key_vec bkv;
        Array.iteri (fun i v -> Vec.append pay_slots.(i).ps_vec v) bpay)
  in
  fun consumer ->
    let run_probe = probe consumer in
    let build () =
      Vec.clear key_vec;
      List.iter (fun slot -> Vec.clear slot.ps_vec) payload;
      let cache = Registry.cache ctx.reg in
      let loaded =
        if not packable then false
        else
          match cache.Cache_iface.lookup_packed ~key:cache_key with
          | Some packed ->
            mat_rows := packed.Cache_iface.length;
            (match List.assoc_opt "__key" packed.Cache_iface.cols with
            | Some (Proteus_storage.Column.Ints a) when sj.sj_mode = `Radix ->
              ikeys := Array.copy a
            | Some kcol ->
              keys :=
                Array.init packed.Cache_iface.length
                  (Proteus_storage.Column.get kcol)
            | None -> ());
            List.iteri
              (fun i slot ->
                match List.assoc_opt (Fmt.str "c%d" i) packed.Cache_iface.cols with
                | Some col ->
                  slot.ps_arr :=
                    Array.init packed.Cache_iface.length
                      (Proteus_storage.Column.get col)
                | None -> ())
              payload;
            true
          | None -> false
      in
      if not loaded then begin
        let e0 = Fault.query_errors () in
        materialize ();
        keys := Vec.to_array key_vec;
        List.iter (fun slot -> slot.ps_arr := Vec.to_array slot.ps_vec) payload;
        (* a build side materialized while rows were being skipped is a
           partial relation: keep it for this query, never install it *)
        if packable && Fault.query_errors () > e0 then
          cache.Cache_iface.quarantine ~id:cache_key
        else if packable then begin
          let cols =
            ( "__key",
              if sj.sj_mode = `Radix then Proteus_storage.Column.Ints (Array.copy !ikeys)
              else
                Proteus_storage.Column.of_values
                  (Option.value key_ty ~default:Ptype.Int)
                  (Array.to_list !keys) )
            :: List.mapi
                 (fun i slot ->
                   ( Fmt.str "c%d" i,
                     Proteus_storage.Column.of_values
                       (Option.value slot.ps_ty ~default:Ptype.Int)
                       (Array.to_list !(slot.ps_arr)) ))
                 payload
          in
          cache.Cache_iface.store_packed ~key:cache_key ~datasets:(Plan.datasets right)
            ~bias
            { Cache_iface.length = !mat_rows; cols }
        end
      end;
      (* cluster/build the index over the materialized keys: partitioned
         clustering at the build fan-out (safe here — builds run before any
         outer fan-out), a hash table over boxed keys otherwise *)
      match sj.sj_mode with
      | `Radix -> radix := Some (Radix.build_par ~domains:(build_fan ctx.domains) !ikeys)
      | `Boxed ->
        VH.reset table;
        let ks = !keys in
        for row = Array.length ks - 1 downto 0 do
          match ks.(row) with
          | Value.Null -> ()
          | k ->
            let prev = try VH.find table k with Not_found -> [] in
            VH.replace table k (row :: prev)
        done
      | `Loop -> ()
    in
    match share with
    | Some (p, _) ->
      (* template: the build phase runs once, before fan-out *)
      p.par_builds := build :: !(p.par_builds);
      run_probe
    | None ->
      fun () ->
        Counters.time Counters.Build build;
        run_probe ()

(* The probe side of a join, for every instance that runs one: the
   template (worker 0, or the serial consumer above a splice) and the
   probe-only workers > 0 alike. It re-registers the build-side bindings
   over the materialized columns (with a private row cursor), compiles the
   left spine, the probe key and the residual against them, and probes
   the finished lookup structure. The template chooses the lane — the
   batch probe when the spine is a batchable fragment and both key sides
   sit in the unboxed int lane — and records it in [sj] with the key mode;
   workers follow that record, and a worker whose compile disagrees with
   it is a staging bug. *)
and compile_probe ctx (sj : shared_join) ~left : (unit -> unit) -> unit -> unit =
  let lead = template ctx in
  let m_cur = ref 0 in
  let null_row = ref false in
  List.iter
    (fun (b, cols) -> Hashtbl.replace ctx.cenv b (Exprc.Row_repr (cols, m_cur, null_row)))
    sj.sj_cols;
  let try_batch = if lead then sj.sj_int_build else sj.sj_lane <> `Tuple in
  let lane =
    match ctx.batch, sj.sj_left_key with
    | Some bs, Some lk when try_batch -> (
      match compile_bfrag ctx left with
      | Some frag -> (
        match Exprc.compile ctx.cenv lk with
        | Exprc.C_int _ as c -> (
          match
            Exprc.batch_int_fill ctx.cenv ~batch_size:bs ~seek:frag.bf_src.Source.seek lk
          with
          | Some (kbuf, kfill) -> `Batch (bs, frag, kbuf, kfill, c)
          | None -> `Spill (bs, frag, c))
        | c -> `Spill (bs, frag, c))
      | None -> `Tuple (compile ctx left))
    | _ -> `Tuple (compile ctx left)
  in
  let left_key =
    match lane with
    | `Batch (_, _, _, _, c) | `Spill (_, _, c) -> Some c
    | `Tuple _ -> Option.map (Exprc.compile ctx.cenv) sj.sj_left_key
  in
  (* the radix path needs unboxed keys on BOTH sides; a probe key compiled
     against materialized rows is boxed, so such joins use the boxed table *)
  let key =
    match left_key with
    | Some (Exprc.C_int g) when sj.sj_int_build -> `Radix g
    | Some c -> `Boxed (Exprc.to_val c)
    | None -> `Loop
  in
  let mode = match key with `Radix _ -> `Radix | `Boxed _ -> `Boxed | `Loop -> `Loop in
  let tag = match lane with `Batch _ -> `Batch | `Spill _ -> `Spill | `Tuple _ -> `Tuple in
  if lead then begin
    sj.sj_mode <- mode;
    sj.sj_lane <- tag
  end
  else if mode <> sj.sj_mode || tag <> sj.sj_lane then
    Perror.plan_error "join probe: lane or key mode differs across pipeline instances";
  let pred_c =
    match sj.sj_residual with
    | Expr.Const (Value.Bool true) -> None
    | residual -> Some (Exprc.to_pred (Exprc.compile ctx.cenv residual))
  in
  fun consumer ->
    let emit = make_emit ~pred_c ~m_cur ~consumer in
    let left_runner =
      match lane with
      | `Tuple run_left -> run_left (join_probe sj ~key ~null_row ~emit ~consumer)
      | `Spill (bs, frag, _) ->
        bfrag_spill ctx frag ~bs (join_probe sj ~key ~null_row ~emit ~consumer)
      | `Batch (bs, frag, kbuf, kfill, _) ->
        count_lane ctx Counters.add_lanes_batch;
        let probe =
          batch_probe_sink sj ~kbuf ~seek:frag.bf_src.Source.seek ~null_row ~emit ~consumer
        in
        bfrag_driver ctx frag ~bs (fun ~base ~sel ~n ->
            kfill ~base ~sel ~n;
            probe ~base ~sel ~n)
    in
    fun () -> Counters.time Counters.Probe left_runner

(* Parallelism substitution for the streaming input of a Sort: the
   instances scan and buffer their visible bindings' values per morsel; the
   buffered rows replay serially, in morsel order — the scan order —
   through boxed registers the Sort's getters read. *)
and buffered_splice actx ~width ~(drive : drive) subplan ~(serial_cenv : Exprc.cenv) () =
  let visible = Plan.bindings subplan in
  let instances, disp, run_fleet =
    compile_instances actx ~width ~drive subplan ~stage:compile
      ~finish:(fun ctx p compiled ->
        let getters =
          List.map (fun b -> Exprc.to_val (Exprc.compile ctx.cenv (Expr.Var b))) visible
        in
        (compiled, getters, p))
  in
  let regs = List.map (fun b -> (b, ref Value.Null)) visible in
  List.iter (fun (b, r) -> Hashtbl.replace serial_cenv b (Exprc.Boxed_repr r)) regs;
  let has_join = plan_has_join subplan in
  let width = Array.length instances in
  fun consumer () ->
    let cells = Array.make width [||] in
    let wire w (run_input, getters, (p : par)) =
      let cell =
        cell_of cells w ~morsels:(Pool.Dispenser.morsels disp) p.par_morsel (fun () -> ref [])
      in
      run_input (fun () ->
          let rows = cell () in
          rows := List.map (fun g -> g ()) getters :: !rows)
    in
    drive_phase has_join (fun () -> run_fleet wire);
    Counters.time Counters.Merge (fun () ->
        iter_cells cells (fun rows ->
            List.iter
              (fun row ->
                List.iter2 (fun (_, r) v -> r := v) regs row;
                consumer ())
              (List.rev !rows)))

(* Parallelism substitution at a bottom Nest (the GROUP BY breaker):
   partitioned parallel group-by. Each domain owns one contiguous run of
   the dispenser's morsels — pruned, indexed and counted like any fleet's —
   and folds it into a single persistent group table it reuses across its
   whole run: no per-morsel table churn, no per-morsel re-merge. The
   per-domain tables merge once, at pipeline end, in domain order; the
   merged groups emit sorted by key. Worker runs make the worker-to-rows
   mapping deterministic at a fixed domain count, so a given (data,
   domains) pair always folds in the same association, and a collection's
   values stay in scan order. Key order makes the output rows the same at
   every width, one domain included. *)
and nest_splice actx ~width ~(drive : drive) ~keys ~aggs ~pred ~binding input
    ~(serial_cenv : Exprc.cenv) () =
  let monoids = List.map (fun (a : Plan.agg) -> a.monoid) aggs in
  let names = List.map (fun (a : Plan.agg) -> a.agg_name) aggs in
  let has_join = plan_has_join input in
  let instances, _disp, run_fleet =
    compile_instances actx ~width ~worker_runs:true ~drive input ~stage:compile
      ~finish:(fun ctx _ compiled ->
        let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
        let ckeys = List.map (fun (_, e) -> Exprc.compile ctx.cenv e) keys in
        let factories =
          List.map
            (fun (a : Plan.agg) -> Agg.factory a.monoid (Exprc.compile ctx.cenv a.expr))
            aggs
        in
        (compiled, pred_c, ckeys, factories))
  in
  (* raw int keys only when every instance compiled the key to the int lane *)
  let (module K : GROUP_KEY) =
    group_key keys
      ~int_key:
        (Array.for_all (function _, _, [ Exprc.C_int _ ], _ -> true | _ -> false) instances)
  in
  let group_reg = ref Value.Null in
  Hashtbl.replace serial_cenv binding (Exprc.Boxed_repr group_reg);
  fun consumer () ->
    let groups = Array.make (Array.length instances) [] in
    let wire w (run_input, pred_c, ckeys, factories) =
      let _, feed =
        group_table (module K.H) (K.reader ckeys) ~pred_c ~factories ~nkeys:(List.length keys)
          ~opened:(fun k insts -> groups.(w) <- (k, insts) :: groups.(w))
      in
      run_input feed
    in
    drive_phase has_join (fun () -> run_fleet wire);
    Counters.time Counters.Merge (fun () ->
        merge_groups monoids ~cmp:K.cmp groups (fun k parts ->
            let aggs =
              List.map2 (fun n v -> (n, v)) names (List.map2 Agg.finalize monoids parts)
            in
            group_reg := Value.record (K.fields k @ aggs);
            consumer ()))

(* The fleet below a bottom breaker, as the node the serial compile
   replaces plus its maker: a Nest becomes the partitioned group-by; any
   other breaker (a Sort) consumes its input through a buffered splice. *)
and splice_at actx ~width (breaker : Plan.t) =
  match breaker with
  | Plan.Nest { keys; aggs; pred; binding; input } ->
    let drive = spine_drive actx input in
    ( breaker,
      fun serial_cenv ->
        nest_splice actx ~width ~drive ~keys ~aggs ~pred ~binding input ~serial_cenv )
  | _ ->
    let input = List.hd (Plan.children breaker) in
    let drive = spine_drive actx input in
    (input, fun serial_cenv -> buffered_splice actx ~width ~drive input ~serial_cenv)

(* The serial consumer above [breaker] over the fleet [splice_at] splices
   in. *)
and spliced_ctx actx ~width breaker =
  let target, mk = splice_at actx ~width breaker in
  let cenv = new_cenv actx.slots in
  { actx with cenv; par = None; splice = Some (target, mk cenv) }

(* The producers of a join's build side, each with the build [key] and
   payload [pays] compiled against its own pipeline, plus the per-run
   morsel count and the driver that runs [wire w src] on every producer. A
   breaker-free build side is a fleet of [build_fan] workers over a
   dispenser of its own; one whose spine holds a breaker gets the root's
   treatment — a serial consumer over a fleet spliced in below its bottom
   breaker — and is one producer over one morsel. Builds run before any
   outer fan-out, so the inner [Pool.run] never nests. *)
and build_sources ctx right ~key ~pays =
  let width = build_fan ctx.domains in
  let finish (ictx : ctx) morsel run =
    {
      bs_run = run;
      bs_key = Option.map (Exprc.compile ictx.cenv) key;
      bs_pays = Array.of_list (List.map (Exprc.compile ictx.cenv) pays);
      bs_morsel = morsel;
    }
  in
  match bottom_breaker right with
  | None ->
    let srcs, disp, run_fleet =
      compile_instances ctx ~width ~drive:(spine_drive ctx right) right ~stage:compile
        ~finish:(fun ictx ip run -> finish ictx ip.par_morsel run)
    in
    (srcs, (fun () -> Pool.Dispenser.morsels disp), run_fleet)
  | Some breaker ->
    let sctx = spliced_ctx ctx ~width breaker in
    let run = compile sctx right in
    let src = finish sctx (ref 0) run in
    ([| src |], (fun () -> 1), fun wire -> wire 0 src ())

(* A Sort carries the whole record of every binding visible at its input,
   so those bindings' producers must be able to reconstruct full values. *)
let rec buffered_bindings (p : Plan.t) =
  (match p with Plan.Sort { input; _ } -> Plan.bindings input | _ -> [])
  @ List.concat_map buffered_bindings (Plan.children p)

let build_required (plan : Plan.t) =
  let required = Exprc.required_paths (all_exprs plan) in
  List.fold_left
    (fun req b -> (b, `Whole) :: List.remove_assoc b req)
    required (buffered_bindings plan)

(* Every root folds: a Reduce root is its (aggregates, predicate, input);
   any other root collects its visible bindings into a bag — the one
   binding's value, or a record of them all. *)
let root_fold (plan : Plan.t) =
  match plan with
  | Plan.Reduce { monoid_output; pred; input } -> (monoid_output, pred, input)
  | _ ->
    let shape =
      match Plan.bindings plan with
      | [ b ] -> Expr.Var b
      | bs -> Expr.Record_ctor (List.map (fun b -> (b, Expr.Var b)) bs)
    in
    ([ Plan.agg ~name:"rows" (Monoid.Collection Ptype.Bag) shape ], Expr.bool true, plan)

(* Project fusion: a root fold directly over a Project inlines the
   projected field expressions into the fold's predicate and aggregate
   expressions, so a scan→select→project→aggregate pipeline keeps a
   batchable shape (and the tuple lane skips a boxed record per tuple).
   Pure expression substitution — same precedent as projection pushdown,
   which already skips evaluating fields nobody reads. *)
let fuse_projects root =
  let exception Keep in
  let rec subst binding fields (e : Expr.t) : Expr.t =
    match e with
    | Expr.Var v when v = binding -> Expr.Record_ctor fields
    | Expr.Const _ | Expr.Param _ | Expr.Var _ -> e
    | Expr.Field (Expr.Var v, f) when v = binding -> (
      match List.assoc_opt f fields with
      | Some fe -> fe
      | None -> raise Keep (* missing field: keep the Project's runtime error *))
    | Expr.Field (x, f) -> Expr.Field (subst binding fields x, f)
    | Expr.Binop (op, a, b) ->
      Expr.Binop (op, subst binding fields a, subst binding fields b)
    | Expr.Unop (op, a) -> Expr.Unop (op, subst binding fields a)
    | Expr.If (c, t, f) ->
      Expr.If (subst binding fields c, subst binding fields t, subst binding fields f)
    | Expr.Record_ctor fs ->
      Expr.Record_ctor (List.map (fun (n, x) -> (n, subst binding fields x)) fs)
    | Expr.Coll_ctor (c, xs) -> Expr.Coll_ctor (c, List.map (subst binding fields) xs)
  in
  let rec fuse ((monoid_output, pred, input) as root) =
    match input with
    | Plan.Project { binding; fields; input } -> (
      try
        fuse
          ( List.map
              (fun (a : Plan.agg) -> { a with Plan.expr = subst binding fields a.expr })
              monoid_output,
            subst binding fields pred,
            input )
      with Keep -> root)
    | _ -> root
  in
  fuse root

(* The serial consumer above a spliced fleet: fold the root's aggregates. *)
let prepare_with (ctx : ctx) ~monoid_output ~pred input : unit -> Value.t =
  let run_input = compile ctx input in
  let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
  let factories =
    List.map
      (fun (a : Plan.agg) -> (a.agg_name, Agg.factory a.monoid (Exprc.compile ctx.cenv a.expr)))
      monoid_output
  in
  fun () ->
    let instances = List.map (fun (n, f) -> (n, f ())) factories in
    let steps = List.map (fun (_, (i : Agg.instance)) -> i.step) instances in
    let consumer =
      match steps with
      | [ s ] -> fun () -> if pred_c () then s ()
      | ss -> fun () -> if pred_c () then List.iter (fun s -> s ()) ss
    in
    run_input consumer ();
    match instances with
    | [ (_, i) ] -> i.value ()
    | many -> Value.record (List.map (fun (n, (i : Agg.instance)) -> (n, i.value ())) many)

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallel execution (Section "Parallelism substitution"
   in DESIGN.md).

   The driver analyses the spine — the path from the root through
   Select/Project/Unnest and join probe (left) sides down to the driving
   scan — and instantiates the compiled pipeline once per domain. Each
   instance owns its closures and its scan cursor; they share the morsel
   dispenser, the (template-built) join build sides, and nothing else.
   Per-morsel partial states are merged on the calling domain in morsel
   order, so results do not depend on which worker ran which morsel. *)

(* The root Reduce drivers' merge: each morsel's cell holds the
   accumulators (and their step) its worker folded it into. Partials merge
   in morsel order and finalize; when no morsel produced a row the result
   is a fresh accumulator set's value, as a fold over nothing. *)
let merge_morsels (monoid_output : Plan.agg list) cells ~partial ~empty =
  let monoids = List.map (fun (a : Plan.agg) -> a.monoid) monoid_output in
  let merged = ref None in
  Counters.time Counters.Merge (fun () ->
      iter_cells cells (fun (insts, _) ->
          let parts = List.map partial insts in
          merged :=
            Some
              (match !merged with
              | None -> parts
              | Some acc -> merge_parts monoids acc parts)));
  let finals =
    match !merged with
    | Some parts -> List.map2 Agg.finalize monoids parts
    | None -> empty ()
  in
  match List.map2 (fun (a : Plan.agg) v -> (a.agg_name, v)) monoid_output finals with
  | [ (_, v) ] -> v
  | many -> Value.record many

(* Root Reduce over a breaker-free spine: every morsel folds into its own
   accumulator set; partials merge in morsel order (deterministic for any
   worker count, since the morsel size does not depend on it), so a
   collection comes out in scan order. Over a
   Select*-over-Scan spine it feeds the root predicate to the promotion
   signal, as [par_batch_reduce] does. *)
let par_reduce actx ~(drive : drive) ~monoid_output ~pred input =
  let instances, disp, run_fleet =
    compile_instances actx ~width:actx.domains ~drive input ~stage:compile
      ~finish:(fun ctx p compiled ->
        if batchable_shape input then note_pred ctx pred;
        let pred_c = Exprc.to_pred (Exprc.compile ctx.cenv pred) in
        let factories =
          List.map
            (fun (a : Plan.agg) ->
              (a.agg_name, Agg.factory a.monoid (Exprc.compile ctx.cenv a.expr)))
            monoid_output
        in
        (compiled, pred_c, factories, p))
  in
  let _, _, factories0, _ = instances.(0) in
  let has_join = plan_has_join input in
  fun () ->
    let cells = Array.make (Array.length instances) [||] in
    let wire w (run_input, pred_c, factories, (p : par)) =
      let cell =
        cell_of cells w ~morsels:(Pool.Dispenser.morsels disp) p.par_morsel (fun () ->
            let insts = List.map (fun (_, f) -> f ()) factories in
            ( insts,
              match insts with
              | [ (i : Agg.instance) ] -> i.step
              | is -> fun () -> List.iter (fun (i : Agg.instance) -> i.step ()) is ))
      in
      run_input (fun () -> if pred_c () then (snd (cell ())) ())
    in
    drive_phase has_join (fun () -> run_fleet wire);
    merge_morsels monoid_output cells
      ~partial:(fun (i : Agg.instance) -> i.partial ())
      ~empty:(fun () -> List.map (fun (_, f) -> ((f () : Agg.instance)).value ()) factories0)

(* Root Reduce on the batch lane: each worker drives its compiled fragment
   morsel by morsel; a fresh set of batch accumulators per morsel, partials
   merged in morsel order — the exact merge structure of [par_reduce], so
   batch and tuple lanes agree bit-for-bit at every domain count. *)
let par_batch_reduce actx ~bs ~(drive : drive) ~monoid_output ~pred input =
  let instances, disp, run_fleet =
    compile_instances actx ~width:actx.domains ~drive input ~stage:compile_bfrag
      ~finish:(fun ctx p frag ->
        let frag =
          match frag with
          | Some f -> f
          | None -> Perror.plan_error "batch lane: fragment refused on a parallel spine"
        in
        let frag =
          match pred with
          | Expr.Const (Value.Bool true) -> frag
          | pr ->
            note_pred ctx pr;
            {
              frag with
              bf_nodes =
                frag.bf_nodes @ [ bfilter_node ctx ~bs ~src:frag.bf_src ~branch:false pr ];
            }
        in
        let seek = frag.bf_src.Source.seek in
        let bfactories =
          List.map
            (fun (a : Plan.agg) ->
              Agg.batch_factory a.monoid ~seek ~scalar:(Exprc.compile ctx.cenv a.expr)
                ~batch:(Exprc.compile_batch ctx.cenv ~batch_size:bs a.expr))
            monoid_output
        in
        (frag, bfactories, ctx, p))
  in
  Counters.add_lanes_batch 1;
  let _, bfactories0, _, _ = instances.(0) in
  fun () ->
    let cells = Array.make (Array.length instances) [||] in
    let wire w (frag, bfactories, ctx, (p : par)) =
      let cell =
        cell_of cells w ~morsels:(Pool.Dispenser.morsels disp) p.par_morsel (fun () ->
            let insts = List.map (fun f -> f ()) bfactories in
            ( insts,
              match insts with
              | [ (i : Agg.binstance) ] -> i.bstep
              | is ->
                fun ~base ~sel ~n ->
                  List.iter (fun (i : Agg.binstance) -> i.bstep ~base ~sel ~n) is ))
      in
      bfrag_driver ctx frag ~bs (fun ~base ~sel ~n -> (snd (cell ())) ~base ~sel ~n)
    in
    Counters.time Counters.Scan (fun () -> run_fleet wire);
    merge_morsels monoid_output cells
      ~partial:(fun (i : Agg.binstance) -> i.bpartial ())
      ~empty:(fun () -> List.map (fun f -> ((f () : Agg.binstance)).bvalue ()) bfactories0)

(* Stage [plan] as fleets of [domains] workers ([domains = 1] runs the same
   fleet inline). Every root folds ([root_fold]): over a breaker-free spine
   the whole spine fans out and per-morsel partials merge; otherwise a
   serial fold consumes a fleet spliced in at the breaker closest to the
   driving scan. *)
let prepare_slotted ~batch_size (reg : Registry.t) ~domains ~slots (plan : Plan.t) :
    unit -> Value.t =
  let domains = max 1 domains in
  let monoid_output, pred, input = fuse_projects (root_fold plan) in
  let batch = if batch_size > 0 then Some batch_size else None in
  let actx =
    {
      reg;
      cenv = new_cenv slots;
      slots;
      required = build_required (Plan.Reduce { monoid_output; pred; input });
      par = None;
      domains;
      batch;
      splice = None;
    }
  in
  match bottom_breaker input with
  | None -> (
    let drive = spine_drive ~preds:[ pred ] actx input in
    match batch with
    | Some bs when batchable_shape input ->
      par_batch_reduce actx ~bs ~drive ~monoid_output ~pred input
    | _ -> par_reduce actx ~drive ~monoid_output ~pred input)
  | Some breaker ->
    prepare_with (spliced_ctx actx ~width:domains breaker) ~monoid_output ~pred input

(* A prepared engine plus its parameter slots: rebinding writes the slots
   and re-runs the same staged closures — no re-compilation. *)
type bound = {
  bd_run : unit -> Value.t;
  bd_params : (string * Value.t ref) list;
}

let bind (b : bound) env =
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name b.bd_params with
      | Some slot -> slot := v
      | None -> Perror.plan_error "unknown parameter ?%s" name)
    env

let fresh_slots plan =
  List.map
    (fun n -> (n, ref Value.Null))
    (Proteus_algebra.Analysis.params plan)


let prepare_par ?(batch_size = default_batch_size) reg ~domains plan =
  prepare_slotted ~batch_size reg ~domains ~slots:[] plan

let prepare_bound_par ?(batch_size = default_batch_size) reg ~domains plan =
  let slots = fresh_slots plan in
  { bd_run = prepare_slotted ~batch_size reg ~domains ~slots plan; bd_params = slots }
