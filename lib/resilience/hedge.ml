(* Straggler hedging for the shard scatter.

   The scatter tracks a latency EWMA per member (the time to stamp out its
   view, including any index rebuild). When a build's elapsed time crosses
   [max floor_ms (factor * median-of-EWMAs)], the same work is dispatched
   once more on a fresh domain and the first finisher wins. Both attempts
   produce views over the same memoized read-only artifacts, so which one
   wins is unobservable in the results — the deterministic morsel-order
   fan-in happens downstream of the build either way. The loser is
   cancelled through a forked fault context (its private cancellation flag
   chains to the query's, so cancelling the loser never touches the
   winner or the query) and its domain is reaped opportunistically.

   Attempts run on domains, not threads: systhreads share their domain's
   DLS, so a per-attempt fault context (the thing that makes the loser
   individually cancellable) needs a domain of its own. *)

open Proteus_model

type t = {
  factor : float;
  floor_ms : float;
  mu : Mutex.t;
  ewmas : (string, float) Hashtbl.t;  (* member -> EWMA of build ms *)
}

let create ?(factor = 3.) ?(floor_ms = 0.) () =
  { factor; floor_ms; mu = Mutex.create (); ewmas = Hashtbl.create 16 }

let ewma t key =
  Mutex.lock t.mu;
  let v = Hashtbl.find_opt t.ewmas key in
  Mutex.unlock t.mu;
  v

let note t key ms =
  Mutex.lock t.mu;
  let v =
    match Hashtbl.find_opt t.ewmas key with
    | None -> ms
    | Some old -> (0.7 *. old) +. (0.3 *. ms)
  in
  Hashtbl.replace t.ewmas key v;
  Mutex.unlock t.mu

(* The hedge trigger: the fleet median of the member EWMAs scaled by
   [factor], floored by [floor_ms]. 0 (no floor, no history yet) disables
   hedging for the build — with no signal there is nothing to call a
   straggler. *)
let threshold_ms t =
  Mutex.lock t.mu;
  let vals = Hashtbl.fold (fun _ v acc -> v :: acc) t.ewmas [] in
  Mutex.unlock t.mu;
  let median =
    match List.sort compare vals with
    | [] -> 0.
    | l -> List.nth l (List.length l / 2)
  in
  Float.max t.floor_ms (t.factor *. median)

(* --- speculative attempts ------------------------------------------------ *)

type 'a outcome = Done of 'a | Raised of exn

type 'a attempt = {
  at_flag : bool Atomic.t;        (* publication barrier for at_cell, at_ms *)
  at_cell : 'a outcome option ref;
  at_ms : float ref;              (* the attempt's own build time *)
  at_ctx : Fault.ctx option;
  at_dom : unit Domain.t;
}

(* Losers outlive the query that hedged them: park their domains here and
   join the ones whose flag has flipped (then the join is immediate) on
   the next hedge; [at_exit] joins whatever is left so the process never
   exits under a running domain. *)
let orphans : (wait:bool -> bool) list ref = ref []
let orphans_mu = Mutex.create ()

let reap ~wait =
  Mutex.lock orphans_mu;
  let pending = !orphans in
  orphans := [];
  Mutex.unlock orphans_mu;
  let left = List.filter (fun try_join -> not (try_join ~wait)) pending in
  Mutex.lock orphans_mu;
  orphans := left @ !orphans;
  Mutex.unlock orphans_mu

let () = at_exit (fun () -> reap ~wait:true)

let orphan (a : 'a attempt) =
  let try_join ~wait =
    if wait || Atomic.get a.at_flag then begin
      Domain.join a.at_dom;
      true
    end
    else false
  in
  Mutex.lock orphans_mu;
  orphans := try_join :: !orphans;
  Mutex.unlock orphans_mu

let spawn parent f =
  let flag = Atomic.make false in
  let cell = ref None and ms = ref 0. in
  let ctx = Option.map Fault.fork parent in
  let dom =
    Domain.spawn (fun () ->
        (* timed inside the domain: a domain's start-up (the process's
           first one pays for the runtime's) is not the member's build *)
        let t0 = Unix.gettimeofday () in
        Fault.set_ctx ctx;
        let r = try Done (f ()) with e -> Raised e in
        ms := (Unix.gettimeofday () -. t0) *. 1000.;
        cell := Some r;
        Atomic.set flag true)
  in
  { at_flag = flag; at_cell = cell; at_ms = ms; at_ctx = ctx; at_dom = dom }

let finished a = Atomic.get a.at_flag

let result_of a =
  match !(a.at_cell) with
  | Some r -> r
  | None -> Raised (Failure "hedge attempt finished without a result")

let poll_interval = 0.0003

let rec wait_first a b =
  if finished a || finished b then ()
  else begin
    Unix.sleepf poll_interval;
    wait_first a b
  end

let return_outcome = function Done v -> v | Raised e -> raise e

(* [run t ~key f] builds [f ()] with hedging: primary attempt on a fresh
   domain; past the threshold, one secondary; first finisher wins (a
   finisher that failed defers to the other attempt — a hedge must never
   make a build fail that could have succeeded). The winner's own build
   time, measured inside its domain, feeds the EWMA. *)
let run t ~key f =
  reap ~wait:false;
  let threshold = threshold_ms t in
  if threshold <= 0. then f ()
  else begin
    let parent = Fault.get_ctx () in
    let t0 = Unix.gettimeofday () in
    match spawn parent f with
    | exception _ -> f () (* domain limit: fall back to the plain build *)
    | primary ->
      let arm_until = t0 +. (threshold /. 1000.) in
      while (not (finished primary)) && Unix.gettimeofday () < arm_until do
        Unix.sleepf poll_interval
      done;
      let settle winner loser v_or_e =
        note t key !(winner.at_ms);
        Option.iter Fault.cancel_ctx loser.at_ctx;
        orphan loser;
        Domain.join winner.at_dom;
        return_outcome v_or_e
      in
      if finished primary then begin
        note t key !(primary.at_ms);
        Domain.join primary.at_dom;
        return_outcome (result_of primary)
      end
      else begin
        Tally.add_shards_hedged 1;
        match spawn parent f with
        | exception _ ->
          (* no domain for the hedge: wait the primary out *)
          while not (finished primary) do
            Unix.sleepf poll_interval
          done;
          Domain.join primary.at_dom;
          return_outcome (result_of primary)
        | secondary -> (
          wait_first primary secondary;
          let first, other =
            if finished primary then (primary, secondary)
            else (secondary, primary)
          in
          match result_of first with
          | Done _ as r -> settle first other r
          | Raised e -> (
            (* first finisher failed: the other attempt may still succeed *)
            while not (finished other) do
              Unix.sleepf poll_interval
            done;
            Domain.join first.at_dom;
            Domain.join other.at_dom;
            match result_of other with
            | Done _ as r ->
              note t key !(other.at_ms);
              return_outcome r
            | Raised _ -> raise e))
      end
  end
