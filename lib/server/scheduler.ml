(* The session scheduler: concurrent queries over one shared session.

   A fixed fleet of worker domains drains a bounded FIFO queue — admission
   control is the queue bound (submissions beyond it are rejected with
   [Overloaded] instead of piling up latency) and the in-flight bound is
   the worker count. Each query runs under its own fault context
   ({!Proteus_engine.Executor.query}, domain-local) with an
   absolute deadline measured from SUBMIT time, so queue wait counts
   against the budget and a query that waited past its deadline is
   answered [Timed_out] without staging anything.

   Every query goes through the plan-shape engine cache: parse → bind user
   parameters → optimize/parameterize/key (serialized compiles) → run the
   leased engine → release with the outcome's cleanliness, which drives
   the cache's install/quarantine decision. Within-query parallelism
   ([domains > 1]) still serializes on the engine pool's global lock; the
   scheduler's concurrency is across one-domain engines, whose one-worker
   fleets run inline without taking it. *)

open Proteus_model
module Executor = Proteus_engine.Executor

type request = {
  rq_sql : string;
  rq_params : (string * Value.t) list;
  rq_timeout_ms : int option;
  rq_domains : int;
  rq_batch_size : int option;
  rq_client : string;
}

let request ?(params = []) ?timeout_ms ?(domains = 1) ?batch_size ?(client = "")
    sql =
  { rq_sql = sql; rq_params = params; rq_timeout_ms = timeout_ms;
    rq_domains = domains; rq_batch_size = batch_size; rq_client = client }

type completion = {
  cp_outcome : Executor.outcome;
  cp_hit : bool;                (* engine-cache hit *)
  cp_compile_seconds : float;   (* staging time paid by this query *)
  cp_wait_seconds : float;      (* queue wait *)
  cp_run_seconds : float;       (* parse + stage/bind + execute *)
}

type ticket = {
  tk_mu : Mutex.t;
  tk_cond : Condition.t;
  mutable tk_result : completion option;
}

exception Shutting_down
(** The payload of a [Failed] completion for a job flushed by a drain that
    hit its timeout before the job could run. *)

type job = {
  jb_id : int;
  jb_req : request;
  jb_submitted : float;
  jb_ticket : ticket;
}

(* Per-client round-robin instead of one global FIFO: each client id has
   its own FIFO queue, and a ring of client ids with pending work rotates
   one job per turn. A client streaming a deep backlog still runs in order
   with itself, but can delay a newcomer by at most (clients - 1) queries —
   not by its whole backlog. The invariant: a client id sits in [ring]
   exactly once iff its queue is non-empty. *)
type t = {
  db : Proteus.Db.t;
  cache : Engine_cache.t;
  workers : int;
  max_queue : int;
  mu : Mutex.t;
  nonempty : Condition.t;
  queues : (string, job Queue.t) Hashtbl.t;
  ring : string Queue.t;
  mutable queued : int;   (* total jobs waiting, across clients *)
  mutable running : int;  (* jobs popped and not yet completed *)
  mutable stopping : bool;
  mutable doms : unit Domain.t list;
  mutable next_id : int;
  inflight : (int, Fault.ctx) Hashtbl.t;
      (* job id -> the running query's fault context, so a drain that hits
         its timeout can cancel in-flight work cooperatively *)
  mutable ewma_run_s : float;
      (* smoothed per-query service time; 0 until the first completion.
         Drives deadline-infeasibility shedding at submit. *)
  mutable c_submitted : int;
  mutable c_rejected : int;
  mutable c_completed : int;
  mutable c_shed : int;
}

let engine_cache t = t.cache
let db t = t.db

let deadline_of job =
  Option.map
    (fun ms -> job.jb_submitted +. (float_of_int ms /. 1000.))
    job.jb_req.rq_timeout_ms

(* One query, on a worker domain: [Executor.query]'s lifecycle around a
   cache lease instead of a fresh compile. *)
let run_query t job =
  let rq = job.jb_req in
  let deadline = deadline_of job in
  match
    match deadline with
    | Some d when Unix.gettimeofday () > d ->
      (* expired in the queue: don't pay a compile for a dead query *)
      Executor.Timed_out Fault.empty_report, false, 0.
    | _ ->
      let plan = Proteus.Db.bind_all rq.rq_params (Proteus.Db.plan_sql t.db rq.rq_sql) in
      let lease =
        Engine_cache.acquire t.cache ~domains:rq.rq_domains
          ?batch_size:rq.rq_batch_size plan
      in
      let outcome =
        Executor.query ?deadline
          ~on_ctx:(fun ctx ->
            Mutex.protect t.mu (fun () -> Hashtbl.replace t.inflight job.jb_id ctx))
          (fun () -> Engine_cache.run lease)
      in
      Mutex.protect t.mu (fun () -> Hashtbl.remove t.inflight job.jb_id);
      let clean =
        match outcome with
        | Executor.Completed (_, r) -> r.Fault.rp_errors = 0
        | _ -> false
      in
      Engine_cache.release lease ~clean;
      (outcome, Engine_cache.hit lease, Engine_cache.compile_seconds lease)
  with
  | result -> result
  | exception e ->
    (* parse/resolve/plan errors surface as a failed outcome, never as a
       dead worker *)
    (Executor.Failed (Fault.empty_report, e), false, 0.)

(* Dequeue the next job round-robin (lock held): take the ring's front
   client, pop one of its jobs, and rotate it to the back iff it still has
   work. *)
let pop_next t =
  let client = Queue.pop t.ring in
  let q = Hashtbl.find t.queues client in
  let job = Queue.pop q in
  if Queue.is_empty q then Hashtbl.remove t.queues client
  else Queue.push client t.ring;
  t.queued <- t.queued - 1;
  (* counted as running from the pop, so a drain poll never sees the
     window between dequeue and execution as idle *)
  t.running <- t.running + 1;
  job

let resolve tk completion =
  Mutex.protect tk.tk_mu (fun () ->
      tk.tk_result <- Some completion;
      Condition.broadcast tk.tk_cond)

let run_job t job =
  let t_start = Unix.gettimeofday () in
  let outcome, hit, compile_s = run_query t job in
  let t_end = Unix.gettimeofday () in
  let completion =
    {
      cp_outcome = outcome;
      cp_hit = hit;
      cp_compile_seconds = compile_s;
      cp_wait_seconds = t_start -. job.jb_submitted;
      cp_run_seconds = t_end -. t_start;
    }
  in
  Mutex.lock t.mu;
  t.c_completed <- t.c_completed + 1;
  t.running <- t.running - 1;
  let run_s = completion.cp_run_seconds in
  t.ewma_run_s <-
    (if t.ewma_run_s = 0. then run_s
     else (0.8 *. t.ewma_run_s) +. (0.2 *. run_s));
  Mutex.unlock t.mu;
  resolve job.jb_ticket completion

let worker t () =
  let rec loop () =
    Mutex.lock t.mu;
    while t.queued = 0 && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if t.queued = 0 then Mutex.unlock t.mu
    else begin
      let job = pop_next t in
      Mutex.unlock t.mu;
      run_job t job;
      loop ()
    end
  in
  loop ()

(* Pop and run one job on the calling thread; [false] when nothing waits.
   With [~workers:0] this makes scheduling fully deterministic — the
   fairness tests drive the round-robin one dequeue at a time. *)
let drain_one t =
  Mutex.lock t.mu;
  if t.queued = 0 then begin
    Mutex.unlock t.mu;
    false
  end
  else begin
    let job = pop_next t in
    Mutex.unlock t.mu;
    run_job t job;
    true
  end

let create ?(workers = 2) ?(max_queue = 64) ?cache_capacity db =
  let t =
    {
      db;
      cache = Engine_cache.create ?capacity:cache_capacity db;
      (* 0 workers = no domains: jobs queue until [drain_one] (tests) *)
      workers = max 0 workers;
      max_queue = max 1 max_queue;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      queues = Hashtbl.create 8;
      ring = Queue.create ();
      queued = 0;
      running = 0;
      stopping = false;
      doms = [];
      next_id = 0;
      inflight = Hashtbl.create 8;
      ewma_run_s = 0.;
      c_submitted = 0;
      c_rejected = 0;
      c_completed = 0;
      c_shed = 0;
    }
  in
  t.doms <- List.init t.workers (fun _ -> Domain.spawn (worker t));
  t

(* Estimated queue wait (seconds) for a newcomer, lock held: jobs ahead of
   it, each costing one smoothed service time, spread over the workers. 0
   until the first completion seeds the EWMA. *)
let est_wait_s t =
  if t.ewma_run_s = 0. then 0.
  else float_of_int t.queued *. t.ewma_run_s /. float_of_int (max 1 t.workers)

let submit t rq =
  let job =
    { jb_id = 0; jb_req = rq; jb_submitted = Unix.gettimeofday ();
      jb_ticket =
        { tk_mu = Mutex.create (); tk_cond = Condition.create ();
          tk_result = None } }
  in
  Mutex.lock t.mu;
  let r =
    if t.stopping then Error `Shutting_down
    else if t.queued >= t.max_queue then begin
      t.c_rejected <- t.c_rejected + 1;
      Error `Overloaded
    end
    else if
      (* deadline-infeasibility shedding: when the expected queue wait
         alone already exceeds the query's whole budget, reject at submit
         instead of burning a slot on a corpse. Conservative by design:
         only sheds with a seeded service-time estimate and a non-empty
         queue, so an idle scheduler never refuses work. *)
      match rq.rq_timeout_ms with
      | Some ms -> t.queued > 0 && est_wait_s t *. 1000. > float_of_int ms
      | None -> false
    then begin
      t.c_shed <- t.c_shed + 1;
      Error `Infeasible
    end
    else begin
      t.c_submitted <- t.c_submitted + 1;
      t.next_id <- t.next_id + 1;
      let job = { job with jb_id = t.next_id } in
      let client = rq.rq_client in
      let q =
        match Hashtbl.find_opt t.queues client with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace t.queues client q;
          Queue.push client t.ring;
          q
      in
      Queue.push job q;
      t.queued <- t.queued + 1;
      Condition.broadcast t.nonempty;
      Ok job.jb_ticket
    end
  in
  Mutex.unlock t.mu;
  r

let await tk =
  Mutex.lock tk.tk_mu;
  while tk.tk_result = None do
    Condition.wait tk.tk_cond tk.tk_mu
  done;
  let r = Option.get tk.tk_result in
  Mutex.unlock tk.tk_mu;
  r

(* Blocking convenience: submit + await on the calling thread. *)
let run t rq =
  match submit t rq with
  | Ok tk -> Ok (await tk)
  | Error _ as e -> e

(* Timed-out drain: flush every still-queued job (its ticket resolves as
   [Failed (_, Shutting_down)] — never a hang) and fire the cancellation
   token of every in-flight query so workers come home at their next
   morsel/batch boundary. *)
let abort_pending t =
  Mutex.lock t.mu;
  let flushed =
    Hashtbl.fold
      (fun _ q acc -> Queue.fold (fun acc j -> j :: acc) acc q)
      t.queues []
  in
  Hashtbl.reset t.queues;
  Queue.clear t.ring;
  t.queued <- 0;
  Hashtbl.iter (fun _ ctx -> Fault.cancel_ctx ctx) t.inflight;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  List.iter
    (fun j ->
      resolve j.jb_ticket
        {
          cp_outcome = Executor.Failed (Fault.empty_report, Shutting_down);
          cp_hit = false;
          cp_compile_seconds = 0.;
          cp_wait_seconds = Unix.gettimeofday () -. j.jb_submitted;
          cp_run_seconds = 0.;
        })
    flushed

let shutdown ?drain_timeout_ms t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  (match drain_timeout_ms with
  | None -> ()
  | Some ms ->
    (* graceful drain: let queued + in-flight work finish, but only up to
       the timeout — then flush the queue and cancel the stragglers *)
    let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.) in
    let rec poll () =
      Mutex.lock t.mu;
      let busy = t.queued > 0 || t.running > 0 in
      Mutex.unlock t.mu;
      if busy then
        if Unix.gettimeofday () >= deadline then abort_pending t
        else begin
          Unix.sleepf 0.005;
          poll ()
        end
    in
    poll ());
  List.iter Domain.join t.doms;
  t.doms <- []

type stats = {
  submitted : int;
  rejected : int;
  shed : int;
  completed : int;
  queued : int;
  running : int;
  workers : int;
  max_queue : int;
  ewma_run_ms : float;
}

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      submitted = t.c_submitted;
      rejected = t.c_rejected;
      shed = t.c_shed;
      completed = t.c_completed;
      queued = t.queued;
      running = t.running;
      workers = t.workers;
      max_queue = t.max_queue;
      ewma_run_ms = t.ewma_run_s *. 1000.;
    }
  in
  Mutex.unlock t.mu;
  s

let pp_stats ppf s =
  Fmt.pf ppf
    "submitted=%d rejected=%d shed=%d completed=%d queued=%d running=%d \
     workers=%d max_queue=%d"
    s.submitted s.rejected s.shed s.completed s.queued s.running s.workers
    s.max_queue;
  if s.ewma_run_ms > 0. then Fmt.pf ppf " ewma-run-ms=%.2f" s.ewma_run_ms
