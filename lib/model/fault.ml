(* Per-query fault tolerance: error policies, bounded error budgets, a
   cooperative cancellation token with deadlines, and a deterministic
   structured error report.

   A guarded query installs a context (see {!install}) around prepare +
   run. The plug-in layer consults the active policy when it drives scans
   ([Skip_row] probes each row's required accessors before committing the
   tuple to the pipeline; [Null_fill] wraps accessors to substitute
   [Value.Null]); the engines check the cancellation token at morsel/batch
   boundaries; the cache layer compares the query's error count around a
   fill to quarantine partially-filled columns.

   The context also owns the query's counters ({!Tally}): every layer ticks
   the active context's cells, and {!finish} returns them in the report and
   folds them into the process totals.

   Determinism: errors are accounted into per-morsel cells keyed by the
   morsel index the recording domain is currently scanning (serial runs use
   cell 0). Cells are merged in morsel order, and within a cell errors
   arrive in scan order — so the merged report (counts, first-K samples,
   per-source breakdown) is identical at any domain count, exactly like the
   engine's per-morsel aggregate merge. *)

type policy = Fail_fast | Skip_row | Null_fill

let policy_name = function
  | Fail_fast -> "fail"
  | Skip_row -> "skip"
  | Null_fill -> "null"

type sample = {
  sm_source : string;  (** dataset name *)
  sm_row : int;        (** OID of the faulty element *)
  sm_pos : int;        (** byte offset in the raw input; -1 when unknown *)
  sm_msg : string;
}

type report = {
  rp_policy : policy;
  rp_errors : int;        (** every recoverable error observed *)
  rp_skipped : int;       (** rows dropped under [Skip_row] *)
  rp_nulled : int;        (** field reads nulled under [Null_fill] *)
  rp_samples : sample list;            (** first [sample_cap] in scan order *)
  rp_by_source : (string * int) list;  (** error count per dataset, sorted *)
  rp_stats : Tally.snapshot;  (** the query's counters and phase times *)
}

exception Budget_exceeded of int
(** The per-query error budget ([~max_errors]) was crossed; the payload is
    the error count at the moment of the abort. *)

exception Cancelled
(** The cancellation token fired: a peer worker failed, or the query was
    cancelled externally. *)

exception Timed_out
(** The query deadline passed. *)

let sample_cap = 8

(* Per-morsel accounting cell. The global first-K samples are always
   contained in the concatenation of per-cell first-K prefixes, so each
   cell keeps at most [sample_cap] samples. *)
type cell = {
  mutable c_errors : int;
  mutable c_skipped : int;
  mutable c_nulled : int;
  mutable c_samples : sample list;  (* reversed *)
  mutable c_nsamples : int;
  mutable c_sources : (string * int) list;
}

type reason = R_none | R_cancel | R_deadline

type ctx = {
  cx_policy : policy;
  cx_max_errors : int;  (* max_int = unlimited *)
  cx_deadline : float option;  (* absolute, Unix.gettimeofday clock *)
  cx_flag : reason Atomic.t;
  cx_errors : int Atomic.t;
  cx_mu : Mutex.t;
  cx_cells : (int, cell) Hashtbl.t;
  cx_tally : Tally.t;
  cx_parent : ctx option;
      (* a forked child (hedged build attempt) carries a private flag so it
         can be cancelled alone, but chains to its parent: the parent's
         cancellation reaches every child through [check_cancel] *)
}

(* The active fault context is domain-local: concurrent queries each install
   their own context on the domain that runs them, so one session's policy,
   budget and cancellation token never leak into another's. Worker pools
   capture the submitting domain's context and re-install it inside their
   jobs ({!get_ctx} / {!set_ctx} — see [Pool.run]); the context record
   itself is written through atomics and a mutex, so sharing one across
   domains is safe. *)
let current_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_ctx () = Domain.DLS.get current_key

(* Installing a context also routes the domain's counter ticks into it
   (re-installing the one already active keeps the domain's block). *)
let set_ctx c =
  match get_ctx (), c with
  | Some a, Some b when a == b -> ()
  | _ ->
    Domain.DLS.set current_key c;
    Tally.attach (Option.map (fun c -> c.cx_tally) c)

(* Which morsel the calling domain is scanning: the engines set this from
   their morsel loops; serial drivers leave it at 0. *)
let morsel_key = Domain.DLS.new_key (fun () -> ref 0)

let set_morsel m = Domain.DLS.get morsel_key := m

let active () = get_ctx () <> None

let policy () =
  match get_ctx () with None -> Fail_fast | Some c -> c.cx_policy

let skipping () = policy () = Skip_row
let null_filling () = policy () = Null_fill

(* Recoverable = data errors. Plan/type errors are bugs in the query or the
   schema and always fail fast. *)
let recoverable = function Perror.Parse_error _ -> true | _ -> false

let exn_pos = function Perror.Parse_error { pos; _ } -> pos | _ -> -1

let exn_msg e = Fmt.str "%a" Perror.pp_exn e

let install ~policy ?(max_errors = max_int) ?deadline () =
  let ctx =
    {
      cx_policy = policy;
      cx_max_errors = max_errors;
      cx_deadline = deadline;
      cx_flag = Atomic.make R_none;
      cx_errors = Atomic.make 0;
      cx_mu = Mutex.create ();
      cx_cells = Hashtbl.create 8;
      cx_tally = Tally.create ();
      cx_parent = None;
    }
  in
  set_morsel 0;
  set_ctx (Some ctx);
  ctx

(* [fork parent] is a child context sharing the parent's policy, deadline,
   budget, accounting cells and counters, but with a private cancellation
   flag that chains to the parent's: cancelling the child (a hedge loser)
   never touches the parent or its other children, while cancelling the
   parent reaches them all. *)
let fork parent =
  { parent with cx_flag = Atomic.make R_none; cx_parent = Some parent }

let clear () = set_ctx None

(* Cancel the active query (if any): peers observe the token at their next
   morsel/batch boundary. Used by the worker pool on the first failure and
   available for external cancellation. *)
let cancel_ctx ctx = ignore (Atomic.compare_and_set ctx.cx_flag R_none R_cancel)

let cancel () =
  match get_ctx () with
  | None -> ()
  | Some ctx -> cancel_ctx ctx

(* A context's effective flag: its own, or the nearest raised ancestor's. *)
let rec raised_flag ctx =
  match Atomic.get ctx.cx_flag with
  | R_none -> (
    match ctx.cx_parent with Some p -> raised_flag p | None -> R_none)
  | r -> r

let check_cancel () =
  match get_ctx () with
  | None -> ()
  | Some ctx -> (
    match raised_flag ctx with
    | R_cancel -> raise Cancelled
    | R_deadline -> raise Timed_out
    | R_none -> (
      match ctx.cx_deadline with
      | Some d when Unix.gettimeofday () > d ->
        ignore (Atomic.compare_and_set ctx.cx_flag R_none R_deadline);
        raise Timed_out
      | _ -> ()))

(* Errors the active query has recorded so far (0 with no query: only a
   degraded policy, which needs a context, records any). *)
let query_errors () =
  match get_ctx () with None -> 0 | Some c -> Atomic.get c.cx_errors

let budget_hit ctx = Atomic.get ctx.cx_errors > ctx.cx_max_errors

let deadline_hit ctx = Atomic.get ctx.cx_flag = R_deadline

(* The active context's absolute deadline — retry backoffs consult it so a
   sleep never outlives the query budget. *)
let deadline () =
  match get_ctx () with None -> None | Some c -> c.cx_deadline

let record_in ctx ~source ~row ~skipped ~nulled e =
  let m = !(Domain.DLS.get morsel_key) in
  Mutex.lock ctx.cx_mu;
  let cell =
    match Hashtbl.find_opt ctx.cx_cells m with
    | Some c -> c
    | None ->
      let c =
        { c_errors = 0; c_skipped = 0; c_nulled = 0; c_samples = [];
          c_nsamples = 0; c_sources = [] }
      in
      Hashtbl.replace ctx.cx_cells m c;
      c
  in
  cell.c_errors <- cell.c_errors + 1;
  cell.c_skipped <- cell.c_skipped + skipped;
  cell.c_nulled <- cell.c_nulled + nulled;
  if cell.c_nsamples < sample_cap then begin
    cell.c_samples <-
      { sm_source = source; sm_row = row; sm_pos = exn_pos e; sm_msg = exn_msg e }
      :: cell.c_samples;
    cell.c_nsamples <- cell.c_nsamples + 1
  end;
  cell.c_sources <-
    (match List.assoc_opt source cell.c_sources with
    | Some n -> (source, n + 1) :: List.remove_assoc source cell.c_sources
    | None -> (source, 1) :: cell.c_sources);
  Mutex.unlock ctx.cx_mu;
  let seen = 1 + Atomic.fetch_and_add ctx.cx_errors 1 in
  if seen > ctx.cx_max_errors then begin
    ignore (Atomic.compare_and_set ctx.cx_flag R_none R_cancel);
    raise (Budget_exceeded seen)
  end

(* [record_skip ~source ~row e] accounts one row dropped by [Skip_row].
   Raises [Budget_exceeded] when the error budget is crossed. *)
let record_skip ~source ~row e =
  match get_ctx () with
  | None -> ()
  | Some ctx ->
    Tally.add_errors_seen 1;
    Tally.add_rows_skipped 1;
    record_in ctx ~source ~row ~skipped:1 ~nulled:0 e

(* [record_null ~source ~row e] accounts one field read nulled by
   [Null_fill]. Raises [Budget_exceeded] when the budget is crossed. *)
let record_null ~source ~row e =
  match get_ctx () with
  | None -> ()
  | Some ctx ->
    Tally.add_errors_seen 1;
    Tally.add_fields_nulled 1;
    record_in ctx ~source ~row ~skipped:0 ~nulled:1 e

(* [finish ctx] ends the query [ctx] was installed for, on the domain that
   installed it, once every worker is done: it uninstalls the context,
   folds the query's counters into the process totals and returns its
   report. *)
let finish ctx =
  clear ();
  let stats = Tally.fold ctx.cx_tally in
  Mutex.lock ctx.cx_mu;
  let cells =
    Hashtbl.fold (fun m c acc -> (m, c) :: acc) ctx.cx_cells []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let errors = List.fold_left (fun acc (_, c) -> acc + c.c_errors) 0 cells in
  let skipped = List.fold_left (fun acc (_, c) -> acc + c.c_skipped) 0 cells in
  let nulled = List.fold_left (fun acc (_, c) -> acc + c.c_nulled) 0 cells in
  let samples =
    List.concat_map (fun (_, c) -> List.rev c.c_samples) cells
    |> List.filteri (fun i _ -> i < sample_cap)
  in
  let by_source =
    List.fold_left
      (fun acc (_, c) ->
        List.fold_left
          (fun acc (s, n) ->
            match List.assoc_opt s acc with
            | Some m -> (s, m + n) :: List.remove_assoc s acc
            | None -> (s, n) :: acc)
          acc c.c_sources)
      [] cells
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Mutex.unlock ctx.cx_mu;
  {
    rp_policy = ctx.cx_policy;
    rp_errors = errors;
    rp_skipped = skipped;
    rp_nulled = nulled;
    rp_samples = samples;
    rp_by_source = by_source;
    rp_stats = stats;
  }

let empty_report =
  {
    rp_policy = Fail_fast;
    rp_errors = 0;
    rp_skipped = 0;
    rp_nulled = 0;
    rp_samples = [];
    rp_by_source = [];
    rp_stats = Tally.zero;
  }

let pp_sample ppf s =
  if s.sm_pos >= 0 then
    Fmt.pf ppf "%s row %d (byte %d): %s" s.sm_source s.sm_row s.sm_pos s.sm_msg
  else Fmt.pf ppf "%s row %d: %s" s.sm_source s.sm_row s.sm_msg

let pp_report ppf r =
  Fmt.pf ppf "error policy %s: %d errors (%d rows skipped, %d fields nulled)"
    (policy_name r.rp_policy) r.rp_errors r.rp_skipped r.rp_nulled;
  List.iter (fun (s, n) -> Fmt.pf ppf "@\n  %s: %d errors" s n) r.rp_by_source;
  List.iter (fun s -> Fmt.pf ppf "@\n  sample: %a" pp_sample s) r.rp_samples
