(* Per-member circuit breakers: closed / open / half-open.

   [failure] counts consecutive budget-exhausted failures; at [threshold]
   the breaker opens and [admit] answers [Reject] until [cooldown_ms] has
   passed. The first [admit] after the cooldown transitions to half-open
   and admits exactly one probe; the probe's [success] closes the breaker,
   its [failure] re-opens it (fresh cooldown). Any [success] resets the
   consecutive-failure count.

   All transitions run under the breaker's own mutex: admits from
   concurrent queries (or hedge attempts) agree on who holds the one
   half-open probe slot. *)

type state = Closed | Open | Half_open

type config = { threshold : int; cooldown_ms : float }

(* Three exhausted budgets back to back open the breaker; a short cooldown
   keeps a flaky member from being benched forever. *)
let default_config = { threshold = 3; cooldown_ms = 1000. }

type t = {
  cfg : config;
  mu : Mutex.t;
  mutable st : state;
  mutable failures : int;   (* consecutive, while closed *)
  mutable opened_at : float; (* Unix.gettimeofday at the last open *)
  mutable probing : bool;   (* half-open probe in flight *)
}

let create ?(config = default_config) () =
  {
    cfg = { config with threshold = max 1 config.threshold };
    mu = Mutex.create ();
    st = Closed;
    failures = 0;
    opened_at = 0.;
    probing = false;
  }

let with_mu t f =
  Mutex.lock t.mu;
  let r = f () in
  Mutex.unlock t.mu;
  r

let state t = with_mu t (fun () -> t.st)

(* [true] while the breaker would [Reject] right now: open and still
   cooling. Read-only — never claims the half-open probe slot, so digest
   arming can consult it without racing the scatter's own admit. *)
let blocking t =
  with_mu t (fun () ->
      match t.st with
      | Open ->
        (Unix.gettimeofday () -. t.opened_at) *. 1000. < t.cfg.cooldown_ms
      | Closed | Half_open -> false)

type decision = Proceed | Reject

let admit t =
  with_mu t (fun () ->
      match t.st with
      | Closed -> Proceed
      | Half_open ->
        if t.probing then Reject
        else begin
          t.probing <- true;
          Proceed
        end
      | Open ->
        if (Unix.gettimeofday () -. t.opened_at) *. 1000. >= t.cfg.cooldown_ms
        then begin
          t.st <- Half_open;
          t.probing <- true;
          Proceed
        end
        else Reject)

let success t =
  with_mu t (fun () ->
      t.st <- Closed;
      t.failures <- 0;
      t.probing <- false)

let failure t =
  with_mu t (fun () ->
      match t.st with
      | Half_open | Open ->
        (* a failed half-open probe (or a late failure racing the open)
           re-opens with a fresh cooldown *)
        t.st <- Open;
        t.opened_at <- Unix.gettimeofday ();
        t.probing <- false
      | Closed ->
        t.failures <- t.failures + 1;
        if t.failures >= t.cfg.threshold then begin
          t.st <- Open;
          t.opened_at <- Unix.gettimeofday ()
        end)
