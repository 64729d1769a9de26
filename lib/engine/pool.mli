(** A reusable pool of worker domains for morsel-driven parallel execution.

    OCaml 5 domains are expensive to spawn relative to a small query, so the
    pool keeps workers alive between runs, parked on a condition variable.
    One pool per process; parallel runs are serialized against each other
    (the engine parallelizes {e within} one query). *)

(** [run ~domains f] runs [f 0 .. f (domains - 1)] concurrently — [f 0] on
    the calling domain, the rest on pooled worker domains — and returns when
    all are done. [domains <= 1] degenerates to [f 0] with no locking. If
    any [f k] raises, the first exception is re-raised after all workers
    finish. *)
val run : domains:int -> (int -> unit) -> unit

(** Stop and join all pooled domains (also installed as an [at_exit] hook;
    tests may call it directly). The pool respawns on the next [run]. *)
val shutdown : unit -> unit

(** [chunk ~total ~parts k] is the half-open contiguous range [lo, hi) owned
    by worker [k] when [0, total) is split statically into [parts] chunks of
    near-equal size (the first [total mod parts] chunks get one extra).
    A pure function of its arguments — the dispenser's worker runs (over
    morsel indices) and the parallel radix build (over rows) rely on the
    assignment being independent of scheduling. [k >= parts] yields an
    empty range. *)
val chunk : total:int -> parts:int -> int -> int * int

(** The morsel dispenser: a grid of fixed-size morsels over a row range
    [0, total), handed out through [Atomic] cursors. With one shared cursor
    workers pull the next morsel as they finish their current one, so load
    balances without work queues; with one cursor per worker run, worker
    [k] owns the [k]-th contiguous run of morsels ({!chunk} over morsel
    indices). Either way every morsel index, skip and count comes from the
    same grid. *)
module Dispenser : sig
  type t

  val create : unit -> t

  (** [reset ?runs t ~total] rearms the dispenser over [0, total) and
      picks a morsel size (aiming at ~64 morsels per input, clamped to
      [16, 8192]). The size depends on [total] alone, never on the number
      of workers: a worker-independent grid keeps morsel-order merges of
      partial results bit-identical for any domain count. [runs] (default
      1: one shared cursor) splits the grid into that many worker runs,
      one cursor each. *)
  val reset : ?runs:int -> t -> total:int -> unit

  (** Number of morsels the current arming will hand out. *)
  val morsels : t -> int

  (** [next ?worker t] is [Some (morsel_index, lo, hi)] — the half-open
      row range [lo, hi) — or [None] when the input (or, with worker runs,
      worker [worker]'s run) is exhausted. [worker] (default 0) picks the
      run; a shared cursor ignores it. *)
  val next : ?worker:int -> t -> (int * int * int) option

  (** Morsels actually handed out since the last {!reset} — at most
      {!morsels}, fewer when a run is cancelled early or morsels are
      skipped. *)
  val dispensed : t -> int

  (** [set_skip t test] arms a pruning test: a morsel whose
      range satisfies [test ~lo ~hi] (a proof that no row in [lo, hi) can
      qualify) is dropped instead of dispensed. [test] runs on whichever
      worker pulls the morsel, so it must be domain-safe, and it counts
      its own skips. Cleared by {!reset}. Skipped morsels keep their index
      in the morsel grid — the per-morsel partial merge is oblivious to
      skipping. *)
  val set_skip : t -> (lo:int -> hi:int -> bool) -> unit
end
