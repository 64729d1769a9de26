(* Shared benchmark machinery: timing, table rendering and the one writer of
   BENCH_engine.json. The goal of every figure harness is the *shape* of the
   paper's plot — who wins, by what factor, where the crossover sits — so we
   report milliseconds per cell in paper-like rows, and every measured cell
   becomes one record of the JSON file. *)

module Json = Proteus_format.Json

let max_domains =
  try int_of_string (String.trim (Sys.getenv "PROTEUS_BENCH_DOMAINS")) with _ -> 4

(* plans handed to every system get the same optimizer courtesy the real
   systems' own optimizers would provide: pushdown + join keys *)
let tune plan =
  Proteus_optimizer.Rewrite.extract_join_keys
    (Proteus_optimizer.Rewrite.pushdown_selections plan)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The spread of k timed runs, in seconds. *)
type summary = { k : int; min : float; median : float; max : float }

let summarize samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let k = Array.length a in
  { k; min = a.(0); median = a.(k / 2); max = a.(k - 1) }

let once t = summarize [ t ]

(* Collect garbage left over from the previous cell once per cell, so its
   major-GC pauses don't land inside this cell's samples. *)
let quiesce () = Gc.major ()

(* k timed runs after a warm-up that pays one-time costs (index builds, cache
   fills, lazy allocation) and is excluded; a warm-up over 0.5 s is the
   single sample (k = 1) *)
let measure_n k f =
  quiesce ();
  let _, warm = time_once f in
  if warm > 0.5 then once warm
  else summarize (List.init k (fun _ -> snd (time_once f)))

(* 5 samples for fast cells, single-shot for slow ones *)
let measure f = measure_n 5 f

let measure_at db ~domains plan =
  let prepared = Proteus.Db.prepare ~domains db plan in
  measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ()))

let ms t = t *. 1000.

(* One measured cell of one figure. [params] say which point of the figure
   it is (system, selectivity, domains, ...); [counters] are what the cell
   reports besides time (skips, pruned shards, slot reads). *)
type record = {
  figure : string;
  cell : string;
  params : (string * Json.t) list;
  time : summary;
  counters : (string * int) list;
}

let record ?(params = []) ?(counters = []) ~figure cell time =
  { figure; cell; params; time; counters }

(* A figure table: header of system names, one row per (label, cells). *)
let print_table ~title ~systems rows =
  Fmt.pr "@.== %s ==@." title;
  Fmt.pr "%-26s" "";
  List.iter (fun s -> Fmt.pr "%14s" s) systems;
  Fmt.pr "@.";
  List.iter
    (fun (label, cells) ->
      Fmt.pr "%-26s" label;
      List.iter
        (fun c ->
          match c with
          | Some s -> Fmt.pr "%11.2fms " (ms s.median)
          | None -> Fmt.pr "%13s " "-")
        cells;
      Fmt.pr "@.")
    rows

let print_note fmt = Fmt.pr "   %s@." fmt

let selectivities = [ 0.1; 0.2; 0.5; 1.0 ]

(* --- host facts and the JSON writer ------------------------------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with Sys_error _ -> None

(* The commit checked out in the working directory, read from .git without
   running git; "unknown" outside a repository. *)
let git_rev () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> (
      let packed = Option.value ~default:"" (read_file ".git/packed-refs") in
      match
        List.find_opt
          (fun l -> String.ends_with ~suffix:(" " ^ r) l)
          (String.split_on_char '\n' packed)
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | Some rev -> rev

(* Processors visible to the process, as the OS reports them; paired with
   [Domain.recommended_domain_count] so scaling numbers carry the machine
   context they were measured on. *)
let host_cores () =
  let n =
    match read_file "/proc/cpuinfo" with
    | None -> 0
    | Some s ->
      List.length
        (List.filter
           (fun l -> String.starts_with ~prefix:"processor" l)
           (String.split_on_char '\n' s))
  in
  if n > 0 then n else Domain.recommended_domain_count ()

(* milliseconds rounded to 0.1 us: more digits are noise *)
let ms_json t = Json.Float (Float.round (ms t *. 1e4) /. 1e4)

let record_json r =
  Json.Obj
    [
      ("figure", Json.Str r.figure);
      ("cell", Json.Str r.cell);
      ("params", Json.Obj r.params);
      ("k", Json.Int r.time.k);
      ("min_ms", ms_json r.time.min);
      ("median_ms", ms_json r.time.median);
      ("max_ms", ms_json r.time.max);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.counters));
    ]

(* Write [path] whole, once per run: the host facts, then one record per
   line. *)
let write_json path records =
  let host =
    Json.Obj
      [
        ("host_cores", Json.Int (host_cores ()));
        ("recommended_domain_count", Json.Int (Domain.recommended_domain_count ()));
        ("git_rev", Json.Str (git_rev ()));
        ("ocaml", Json.Str Sys.ocaml_version);
      ]
  in
  let last = List.length records - 1 in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\n  \"host\": %s,\n  \"records\": [\n" (Json.to_string host);
      List.iteri
        (fun i r ->
          Printf.fprintf oc "    %s%s\n"
            (Json.to_string (record_json r))
            (if i = last then "" else ","))
        records;
      output_string oc "  ]\n}\n");
  Fmt.pr "@.wrote %s (%d records)@." path (List.length records)
