(** [proteus serve]: a line-protocol TCP front end over the {!Scheduler}.

    Protocol (LF-terminated lines, fixed-shape responses):
    - [ping] → [pong]
    - [param NAME=VALUE] → [ok] — accumulates a parameter for the next
      [run]; a bare [param VALUE] binds the next positional [?] (named
      ["1"], ["2"], …)
    - [timeout MS] → [ok] — deadline for the next [run], measured from
      submission
    - [run SQL] → [ok N] followed by [N] JSON result lines, or
      [err KIND: message] with kind one of [overloaded], [infeasible]
      (deadline shedding), [timeout], [cancelled], [error]
    - [stats] → one line with engine-cache, scheduler and resilience
      counters
    - [health] → one line: [ok] or [draining], scheduler depth/counters,
      and circuit-breaker states ([open=N half-open=N closed=N])
    - [quit] → [bye]

    Hardening: request lines are capped at 8 KiB (an oversized line gets
    one [err error:] reply and the connection closes); EPIPE mid-write and
    malformed input end only their own connection. SIGPIPE is ignored by
    {!serve}. Shutdown ([stop] flipping, e.g. from SIGTERM) drains queued
    and in-flight queries for up to [drain_timeout_ms] before cancelling
    the stragglers cooperatively. *)

open Proteus_model

type config = {
  host : string;
  port : int;                (** 0 binds an ephemeral port *)
  workers : int;             (** scheduler worker domains *)
  max_queue : int;           (** admission-control queue bound *)
  cache_capacity : int;      (** engine-cache LRU bound *)
  domains : int;             (** per-query morsel parallelism *)
  batch_size : int option;
  timeout_ms : int option;   (** default per-query deadline *)
  drain_timeout_ms : int;    (** graceful-shutdown budget for in-flight work *)
}

val default_config : config

(** [serve ?ready ?stop db cfg] blocks accepting connections until [stop]
    flips (checked every 200 ms); [ready] receives the bound port. One OS
    thread per connection; queries run on the scheduler's worker domains. *)
val serve : ?ready:(int -> unit) -> ?stop:bool Atomic.t -> Proteus.Db.t -> config -> unit

(** Parameter values as written on the wire / CLI: [null], [true]/[false],
    int, float, ['quoted string'] ([''] escapes a quote), else the raw
    string. *)
val parse_value : string -> Value.t

(** ["NAME=VALUE"] → [(name, value)]; a bare ["VALUE"] binds the next
    positional slot counted by [positional]. *)
val parse_param : positional:int ref -> string -> string * Value.t

(** The [stats] verb's reply line (without the newline). *)
val stats_line : Scheduler.t -> string

(** Client helper: connect, run [f in_channel out_channel], close. *)
val with_connection :
  ?host:string -> port:int -> (in_channel -> out_channel -> 'a) -> 'a
