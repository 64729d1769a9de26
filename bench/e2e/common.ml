(* What every workload shares: the run configuration, sample statistics,
   and the result record a workload hands back to [Main]. *)

type config = {
  seed : int;
  seconds : float;  (* length of the timed window *)
  layers : Layers.t option;  (* [Some] on a traced run *)
  smoke : bool;  (* tiny inputs, every answer checked *)
}

(* The engine runs on one domain. At two, on a two-core host, one seed's
   throughput moved by 15% from run to run (and its heap peak with it): the
   parallel engine's fills and promotions land differently with timing. At
   one domain it moves by about 3%. The server still runs two scheduler
   workers, so serve_prepared keeps both cores busy. *)
let domains = 1

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [set_up f] runs the set-up three times, each after a full collection,
   and returns the last result with every duration: setup_s is their
   median, and the last session is the one the window measures. [release]
   disposes of the earlier ones, untimed. *)
let set_up ?(release = ignore) f =
  let rec go k acc =
    Gc.full_major ();
    let r, dt = timed f in
    if k = 1 then (r, dt :: acc)
    else begin
      release r;
      go (k - 1) (dt :: acc)
    end
  in
  go 3 []

(* The live major heap after a full collection, read when the window
   closes: what the session holds (inputs, indexes, caches, promoted
   layouts), before the oracle's checks. The GC's high-water mark
   ([top_heap_words]) would count transient peaks too, but where it lands
   depends on when collections finish: across seeds of one workload it
   moved by 8%, the live heap by 1.5%. *)
let heap_live_mb (db : Proteus.Db.t) =
  Gc.full_major ();
  let words = (Gc.stat ()).live_words in
  (* the session must be reachable while the heap is counted *)
  ignore (Sys.opaque_identity db);
  float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Sample statistics. [percentile] is nearest-rank over [p] in (0, 100]. *)
let percentile samples p =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let median samples = percentile samples 50.

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes them
   (the "exclusive" method), so spreads printed here match that rule. *)
let quartiles samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* A request stream over [items] in blocks, each a fresh permutation of all
   of them: every run draws the same mix, and only the order (and whatever
   the caller draws per item) varies with the seed. *)
let shuffled_blocks rng items =
  let a = Array.of_list items in
  let n = Array.length a in
  let next = ref n in
  fun () ->
    if !next = n then begin
      for k = n - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let x = a.(k) in
        a.(k) <- a.(j);
        a.(j) <- x
      done;
      next := 0
    end;
    incr next;
    a.(!next - 1)

(* A round of the timed window: the latencies (seconds) of the requests
   it completed, and its length. qps, p50_ms and tail_ms are medians over
   rounds of the round's rate, median and tail percentile, so a stretch of
   interference on the host moves the rounds it covers, not the result. *)
type round = { lats : float list; secs : float }

(* One-second slices of a window, the rounds of a stream that has no
   natural ones, from (completion time after the window opened, latency)
   pairs. *)
let slices ~window completed =
  let k = max 1 (int_of_float window) in
  let len = window /. float_of_int k in
  let lats = Array.make k [] in
  List.iter
    (fun (e, l) ->
      let i = max 0 (min (k - 1) (int_of_float (e /. len))) in
      lats.(i) <- l :: lats.(i))
    completed;
  Array.to_list (Array.map (fun lats -> { lats; secs = len }) lats)

(* The oracle checks a seeded 2% sample of requests (every request in a
   smoke run); the sampling stream is separate from the request stream so
   the workload does not depend on it. *)
let sampler cfg =
  let rng = Random.State.make [| cfg.seed; 0x0dac1e |] in
  fun () -> cfg.smoke || Random.State.float rng 1.0 < 0.02

type result = {
  attempted : int;
  failed : int;  (* exceptions, err replies and wrong answers *)
  wrong : int;  (* of which answers the oracle rejected *)
  checked : int;  (* answers compared with the oracle *)
  window_s : float;  (* timed wall clock *)
  rounds : round list;
  setups : float list;  (* seconds per repetition of the set-up *)
  heap_live_mb : float;  (* [heap_live_mb db] when the window closed *)
  tail : float;  (* the percentile reported as tail_ms *)
  extra : (string * float * string) list;  (* workload-specific, printed only *)
  inputs : (string * string) list;  (* provenance: scales and sizes *)
}

(* Failure bookkeeping of one run: a request that raises, gets an [err]
   reply or a wrong answer counts as failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable checked : int;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; checked = 0 }

let note_error (t : tally) what e =
  t.failed <- t.failed + 1;
  Printf.eprintf "request failed (%s): %s\n%!" what (Printexc.to_string e)

let check (t : tally) what ok =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.wrong <- t.wrong + 1;
    Printf.eprintf "wrong answer: %s\n%!" what
  end
