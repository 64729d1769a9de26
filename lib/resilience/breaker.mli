(** Per-member circuit breakers: [threshold] consecutive failures open the
    breaker; after [cooldown_ms] one half-open probe is admitted, and its
    outcome closes or re-opens it. Thread-safe. *)

type state = Closed | Open | Half_open

type config = { threshold : int; cooldown_ms : float }

(** threshold 3, cooldown 1000 ms. *)
val default_config : config

type t

val create : ?config:config -> unit -> t

val state : t -> state

(** [true] while {!admit} would answer [Reject] (open, still cooling).
    Read-only: never claims the half-open probe slot. *)
val blocking : t -> bool

type decision = Proceed | Reject

(** [admit t] asks whether an attempt may run now. [Proceed] from a
    half-open breaker claims the single probe slot — the caller must
    report {!success} or {!failure} for the state machine to move on. *)
val admit : t -> decision

(** Closes the breaker and resets the consecutive-failure count. *)
val success : t -> unit

(** One budget-exhausted failure: counts toward [threshold] while closed,
    re-opens (fresh cooldown) from half-open. *)
val failure : t -> unit
