(* A reusable pool of worker domains for morsel-driven execution.

   Workers are spawned lazily on the first parallel run and parked on a
   per-worker condition variable between runs, so repeated queries reuse the
   same domains (spawning is far more expensive than a small query). [run
   ~domains f] executes [f 0 .. f (domains - 1)] concurrently, with worker 0
   on the calling domain. Runs are serialized by a global lock: the engine
   parallelizes within one query, not across concurrent queries. *)

type worker = {
  lock : Mutex.t;
  cond : Condition.t;
  mutable job : (unit -> unit) option;
  mutable stop : bool;
}

let worker_loop w () =
  let rec next () =
    Mutex.lock w.lock;
    while (match w.job with None -> true | Some _ -> false) && not w.stop do
      Condition.wait w.cond w.lock
    done;
    match w.job with
    | Some job ->
      Mutex.unlock w.lock;
      (* jobs arrive pre-wrapped by [run]; the catch-all only guards the
         worker loop itself against a raw job slipping through *)
      (try job () with _ -> ());
      Mutex.lock w.lock;
      w.job <- None;
      Condition.broadcast w.cond;
      Mutex.unlock w.lock;
      next ()
    | None -> Mutex.unlock w.lock
  in
  next ()

type pool = {
  mutable workers : worker array;
  mutable domains : unit Domain.t array;
}

let pool = { workers = [||]; domains = [||] }
let pool_lock = Mutex.create ()
let exit_hook_installed = ref false

let stop_all_locked () =
  Array.iter
    (fun w ->
      Mutex.lock w.lock;
      w.stop <- true;
      Condition.broadcast w.cond;
      Mutex.unlock w.lock)
    pool.workers;
  Array.iter Domain.join pool.domains;
  pool.workers <- [||];
  pool.domains <- [||]

(* must be called with [pool_lock] held *)
let ensure_locked n =
  let have = Array.length pool.workers in
  if have < n then begin
    if not !exit_hook_installed then begin
      exit_hook_installed := true;
      (* join every worker before process exit so the runtime shuts down
         cleanly *)
      at_exit (fun () ->
          Mutex.lock pool_lock;
          stop_all_locked ();
          Mutex.unlock pool_lock)
    end;
    let fresh =
      Array.init (n - have) (fun _ ->
          let w =
            { lock = Mutex.create (); cond = Condition.create (); job = None; stop = false }
          in
          (w, Domain.spawn (worker_loop w)))
    in
    pool.workers <- Array.append pool.workers (Array.map fst fresh);
    pool.domains <- Array.append pool.domains (Array.map snd fresh)
  end

let submit w job =
  Mutex.lock w.lock;
  w.job <- Some job;
  Condition.broadcast w.cond;
  Mutex.unlock w.lock

let await w =
  Mutex.lock w.lock;
  while match w.job with Some _ -> true | None -> false do
    Condition.wait w.cond w.lock
  done;
  Mutex.unlock w.lock

let shutdown () =
  Mutex.lock pool_lock;
  stop_all_locked ();
  Mutex.unlock pool_lock

let run ~domains f =
  if domains <= 1 then f 0
  else begin
    Mutex.lock pool_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock pool_lock)
      (fun () ->
        ensure_locked (domains - 1);
        let failure = Atomic.make None in
        (* The fault context is domain-local: carry the submitter's into
           every worker so budget accounting, policies and the cancellation
           token span the whole fleet, and clear it again when the job ends
           so no context outlives its query on a parked domain. *)
        let fctx = Proteus_model.Fault.get_ctx () in
        let wrap k () =
          Proteus_model.Fault.set_ctx fctx;
          (try f k
           with e ->
             let bt = Printexc.get_raw_backtrace () in
             (* First failure wins the CAS, then trips the cancellation
                token so peers stop at their next morsel fetch instead of
                draining the dispenser. Peers' own Cancelled exceptions
                lose the CAS, so the original failure is what re-raises. *)
             if Atomic.compare_and_set failure None (Some (e, bt)) then
               Proteus_model.Fault.cancel ());
          if k > 0 then Proteus_model.Fault.set_ctx None
        in
        for k = 1 to domains - 1 do
          submit pool.workers.(k - 1) (wrap k)
        done;
        wrap 0 ();
        for k = 1 to domains - 1 do
          await pool.workers.(k - 1)
        done;
        match Atomic.get failure with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
  end

(* Static partitioning: worker [k] of [parts] owns the contiguous range
   [chunk ~total ~parts k). Unlike a shared cursor there is no load
   balancing, but the assignment is a pure function of (total, parts, k) —
   the dispenser's worker runs and the parallel radix build use it so that
   what a domain owns is deterministic, independent of scheduling. *)
let chunk ~total ~parts k =
  if parts <= 1 then if k = 0 then (0, total) else (total, total)
  else begin
    let base = total / parts and rem = total mod parts in
    let lo = (k * base) + min k rem in
    let len = base + if k < rem then 1 else 0 in
    (lo, lo + len)
  end

(* The morsel dispenser: a grid of fixed-size morsels over [0, total),
   handed out through atomic cursors. One shared cursor balances load —
   every worker pulls the next morsel when it finishes its current one, so
   faster workers take more of the input. One cursor per worker run pins
   worker [k] to the [k]-th contiguous run of morsels instead, for fleets
   that keep per-worker state across the whole scan. *)
module Dispenser = struct
  type t = {
    mutable runs : (int Atomic.t * int) array;  (* each run's next row and end row *)
    mutable total : int;
    mutable morsel : int;
    handed : int Atomic.t;  (* morsels dispensed since the last reset *)
    mutable skip : lo:int -> hi:int -> bool;
        (* pruning test: [true] proves the range yields no qualifying row,
           so the morsel is dropped instead of dispensed. Must be safe to
           call from any worker domain (pure reads + atomic counters). *)
  }

  let never ~lo:_ ~hi:_ = false

  let create () =
    {
      runs = [| (Atomic.make 0, 0) |];
      total = 0;
      morsel = 1;
      handed = Atomic.make 0;
      skip = never;
    }

  let morsels t = if t.total = 0 then 0 else (t.total + t.morsel - 1) / t.morsel

  (* Morsels are the zone-map grid ([Zonemap.zone_rows]: ~64 per input,
     clamped so tiny inputs stay one hand-off and huge ones keep per-morsel
     buffers reasonable), so zones line up 1:1 with morsels. The size
     deliberately does NOT depend on the worker count: per-morsel partial
     aggregates merge in morsel order, so a worker-independent grid makes
     merged results (float association included) bit-identical for any
     domain count. Worker runs split that grid with [chunk]. *)
  let reset ?(runs = 1) t ~total =
    t.morsel <- Proteus_storage.Zonemap.zone_rows total;
    t.total <- total;
    let runs = max 1 runs in
    t.runs <-
      Array.init runs (fun k ->
          let lo, hi = chunk ~total:(morsels t) ~parts:runs k in
          (Atomic.make (lo * t.morsel), min total (hi * t.morsel)));
    Atomic.set t.handed 0;
    t.skip <- never

  let set_skip t test = t.skip <- test

  let rec next ?(worker = 0) t =
    let cursor, stop = t.runs.(if Array.length t.runs = 1 then 0 else worker) in
    let lo = Atomic.fetch_and_add cursor t.morsel in
    if lo >= stop then None
    else begin
      let hi = min stop (lo + t.morsel) in
      if t.skip ~lo ~hi then next ~worker t
      else begin
        Atomic.incr t.handed;
        Some (lo / t.morsel, lo, hi)
      end
    end

  let dispensed t = Atomic.get t.handed
end
