(* The end-to-end benchmark: one command, four seeded workloads, every
   end-to-end metric printed by name with its unit, every checked answer
   compared with a reference evaluator (README.md has the workloads, the
   metrics and how to read them).

     main.exe --workload NAME --seed N --seconds S --trace 0|1
         one workload in this process; the last line of standard output is
         {"correct", "attempted", "failed", "metrics"} — the end-to-end
         metrics untraced, the per-layer metrics traced
     main.exe [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
         every workload, each in a fresh child process
     main.exe --runs K      every workload K times (seeds N..N+K-1): median,
                            quartiles and spread of each metric, flagged
                            where the spread exceeds its BENCHMARK.json bound
     main.exe --smoke       tiny inputs, every answer checked, every declared
                            metric printed; asserts no timing

   The exit code is non-zero when any request failed or any answer was
   wrong. *)

module Json = Proteus_format.Json

let workloads =
  [
    ("spam_cold", Spam_cold.run);
    ("tpch_mixed", Tpch_mixed.run);
    ("serve_prepared", Serve_prepared.run);
    ("append_mix", Append_mix.run);
  ]

(* --- provenance ---------------------------------------------------------- *)

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

let host_cores () =
  match read_file "/proc/cpuinfo" with
  | None -> 0
  | Some s ->
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:"processor" l)
         (String.split_on_char '\n' s))

(* --- one workload, in this process -------------------------------------- *)

(* every value with all its digits; a metric that could not be measured (no
   completed request) reads 0, and such a run has failed anyway *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* Rates, medians and tails are taken per round, then their median over
   rounds (see [Common.round]). *)
let end_to_end (r : Common.result) =
  let over rounds f = Common.median (List.map f rounds) in
  let busy = List.filter (fun (x : Common.round) -> x.lats <> []) r.rounds in
  [
    ("setup_s", Common.median r.setups, "s");
    ("qps", over r.rounds (fun x -> float_of_int (List.length x.lats) /. x.secs), "1/s");
    ("p50_ms", 1000. *. over busy (fun x -> Common.median x.lats), "ms");
    ("tail_ms", 1000. *. over busy (fun x -> Common.percentile x.lats r.tail), "ms");
    ("heap_live_mb", r.heap_live_mb, "MB");
  ]

let metric_line ~workload ~samples (name, value, unit) =
  Printf.printf "{\"workload\": %S, \"metric\": %S, \"value\": %s, \"unit\": %S, \"samples\": %d}\n"
    workload name (num value) unit samples

let run_workload ~name ~run ~seed ~seconds ~trace ~trace_dir ~smoke =
  let layers = if trace then Some (Layers.create ()) else None in
  let cfg = { Common.seed; seconds; layers; smoke } in
  let (r : Common.result) = run cfg in
  let samples = List.fold_left (fun n (x : Common.round) -> n + List.length x.lats) 0 r.rounds in
  let fields =
    [
      ("host_cores", string_of_int (host_cores ()));
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
      ("domains", string_of_int Common.domains);
      ("git_rev", Printf.sprintf "%S" (git_rev ()));
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ("traced", string_of_bool trace);
      ("window_s", num r.window_s);
      ("samples", string_of_int samples);
      ("rounds", string_of_int (List.length r.rounds));
      ("attempted", string_of_int r.attempted);
      ("failed", string_of_int r.failed);
      ("wrong", string_of_int r.wrong);
      ("checked", string_of_int r.checked);
      ("setups", string_of_int (List.length r.setups));
      ("tail_percentile", num r.tail);
    ]
    @ List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) r.inputs
  in
  Printf.printf "{\"workload\": %S, \"provenance\": {%s}}\n" name
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields));
  let error_rate = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  let reported =
    match layers with None -> end_to_end r | Some l -> Layers.metrics l
  in
  let printed_only =
    (("error_rate", error_rate, "ratio") :: r.extra)
    @ match layers with None -> [] | Some l -> Layers.details l
  in
  List.iter (metric_line ~workload:name ~samples) (reported @ printed_only);
  (match (layers, trace_dir) with
  | Some l, Some dir ->
    Trace.write l.trace ~path:(Filename.concat dir (name ^ ".json")) ~workload:name
  | _ -> ());
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          reported));
  if r.failed > 0 then exit 1

(* --- every workload, one child process each ----------------------------- *)

type child = { ok : bool; metrics : (string * float) list }

let float_of_json = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> nan

let parse_result line =
  match Json.parse_string line with
  | Json.Obj fields -> (
    match List.assoc_opt "metrics" fields with
    | Some (Json.Obj ms) ->
      List.map
        (fun (n, m) ->
          match m with
          | Json.Obj f -> (n, float_of_json (Option.value ~default:Json.Null (List.assoc_opt "value" f)))
          | _ -> (n, nan))
        ms
    | _ -> [])
  | _ -> []

(* Re-execute this program on one workload: caches, the domain pool and the
   GC heap never carry over between workloads. Its lines are echoed; the
   last one is the result. *)
let child ~quiet args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let last = ref "" in
  (try
     while true do
       let line = input_line ic in
       if not quiet then print_endline line;
       last := line
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let metrics = try parse_result !last with _ -> [] in
  { ok = status = Unix.WEXITED 0; metrics }

let child_args ~workload ~seed ~seconds ~trace ~trace_dir ~smoke =
  [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; num seconds;
    "--trace"; (if trace then "1" else "0") ]
  @ (match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> [])
  @ if smoke then [ "--smoke" ] else []

(* --- BENCHMARK.json ------------------------------------------------------ *)

type declared = { e2e : (string * float) list; per_layer : string list }

let declared path =
  let field name = function Json.Obj f -> List.assoc_opt name f | _ -> None in
  let list name j = match field name j with Some (Json.Arr l) -> l | _ -> [] in
  let str name j = match field name j with Some (Json.Str s) -> s | _ -> "" in
  let j = Json.parse_string (In_channel.with_open_bin path In_channel.input_all) in
  {
    e2e =
      List.map
        (fun m -> (str "name" m, float_of_json (Option.value ~default:Json.Null (field "bound" m))))
        (list "end_to_end" j);
    per_layer = List.map (str "name") (list "per_layer" j);
  }

(* --- modes --------------------------------------------------------------- *)

let all ~seed ~seconds ~trace ~trace_dir =
  List.fold_left
    (fun ok (w, _) ->
      let c =
        child ~quiet:false (child_args ~workload:w ~seed ~seconds ~trace ~trace_dir ~smoke:false)
      in
      ok && c.ok)
    true workloads

(* Repeatability: the whole benchmark K times on seeds N..N+K-1; for each
   (workload, metric), the median and quartiles of the K values and the
   spread (q3 - q1) / median, flagged when it exceeds the metric's bound. *)
let runs ~k ~seed ~seconds ~bench_json =
  let d = declared bench_json in
  let results =
    List.map
      (fun (w, _) ->
        ( w,
          List.init k (fun i ->
              Printf.eprintf "run %d/%d: %s\n%!" (i + 1) k w;
              child ~quiet:true
                (child_args ~workload:w ~seed:(seed + i) ~seconds ~trace:false ~trace_dir:None
                   ~smoke:false)) ))
      workloads
  in
  let flagged = ref 0 in
  List.iter
    (fun (w, cs) ->
      List.iter
        (fun (m, bound) ->
          let vs = List.filter_map (fun c -> List.assoc_opt m c.metrics) cs in
          let q1, q2, q3 = Common.quartiles vs in
          let spread = (q3 -. q1) /. q2 in
          let over = spread > bound in
          if over then incr flagged;
          Printf.printf
            "{\"workload\": %S, \"metric\": %S, \"runs\": %d, \"median\": %s, \"q1\": %s, \"q3\": \
             %s, \"spread\": %s, \"bound\": %s, \"over_bound\": %b, \"values\": [%s]}\n"
            w m (List.length vs) (num q2) (num q1) (num q3) (num spread) (num bound) over
            (String.concat ", " (List.map num vs)))
        d.e2e)
    results;
  let ok = List.for_all (fun (_, cs) -> List.for_all (fun c -> c.ok) cs) results in
  Printf.printf "%d of %d metric spreads exceed their bound\n" !flagged
    (List.length d.e2e * List.length workloads);
  ok

(* Smoke: every workload at tiny scale, untraced and traced. Fails on any
   wrong answer or failed request, and unless each run prints exactly the
   metrics BENCHMARK.json declares. Never looks at a value. *)
let smoke ~bench_json =
  let d = declared bench_json in
  let same_names expected got =
    List.sort compare expected = List.sort compare (List.map fst got)
  in
  List.for_all
    (fun (w, _) ->
      List.for_all
        (fun trace ->
          let c =
            child ~quiet:true
              (child_args ~workload:w ~seed:1 ~seconds:0.1 ~trace ~trace_dir:None ~smoke:true)
          in
          let expected = if trace then d.per_layer else List.map fst d.e2e in
          let names_ok = same_names expected c.metrics in
          Printf.printf "smoke %s trace=%b: answers %s, metrics %s\n%!" w trace
            (if c.ok then "ok" else "FAILED")
            (if names_ok then "ok" else "MISMATCH");
          c.ok && names_ok)
        [ false; true ])
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref false in
  let trace_dir = ref "" and runs_k = ref 0 and smoke_mode = ref false in
  let bench_json = ref "BENCHMARK.json" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N seed of the inputs and the request stream (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of each timed window (default 20)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
        " report per-layer metrics from a traced run" );
      ("--trace-dir", Arg.Set_string trace_dir, "DIR write each traced run's spans here");
      ("--runs", Arg.Set_int runs_k, "K repeatability mode over K seeds");
      ("--smoke", Arg.Set smoke_mode, " tiny inputs, every answer checked, no timing");
      ("--benchmark-json", Arg.Set_string bench_json, "PATH metric declarations (default BENCHMARK.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] \
     [--runs K] [--smoke]";
  let trace_dir = if !trace_dir = "" then None else Some !trace_dir in
  let trace = !trace in
  if !workload <> "" then
    match List.assoc_opt !workload workloads with
    | Some run ->
      run_workload ~name:!workload ~run ~seed:!seed ~seconds:!seconds ~trace ~trace_dir
        ~smoke:!smoke_mode
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  else
    let ok =
      if !runs_k > 0 then runs ~k:!runs_k ~seed:!seed ~seconds:!seconds ~bench_json:!bench_json
      else if !smoke_mode then smoke ~bench_json:!bench_json
      else all ~seed:!seed ~seconds:!seconds ~trace ~trace_dir
    in
    exit (if ok then 0 else 1)
