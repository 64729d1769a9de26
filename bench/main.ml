(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7) at laptop scale, plus the engine's own figures
   (parallel scaling, prepared statements, shards, hedging, promoted
   layouts), and writes every measured cell to BENCH_engine.json.

   Run with: dune exec bench/main.exe
   Scale knobs: PROTEUS_BENCH_SF_JSON, PROTEUS_BENCH_SF_BIN,
   PROTEUS_BENCH_SPAM_{JSON,CSV,BIN}, PROTEUS_BENCH_DOMAINS. *)

let () =
  Fmt.pr "Proteus benchmark harness — regenerating the paper's evaluation@.";
  Fmt.pr "(shapes, not absolute numbers: the substrate is an OCaml simulator)@.";
  let je, be, tpch = Tpch_figs.run_all () in
  let figures =
    [
      (fun () -> tpch);
      Symantec_fig.run_all;
      (fun () -> Parallel_fig.run_all je be);
      Server_fig.run_all;
      Shards_fig.run_all;
      Resilience_fig.run_all;
      Projection_fig.run_all;
      Ablations.run_all;
    ]
  in
  (* in order: a list literal would evaluate its figures right to left *)
  Util.write_json "BENCH_engine.json" (List.concat_map (fun fig -> fig ()) figures)
