(* The resilience layer under an injected straggler (DESIGN.md section 15):
   what does one slow shard cost an unhedged scatter, and how much of that
   does straggler hedging claw back?

   Three cells per stall size, same data, same query, 8 shards:
   - clean: no fault — the floor;
   - stalled, unhedged: one member's build is held for stall_ms every
     query, and the gather must wait it out;
   - stalled, hedged: same fault with --hedge-ms-style hedging armed; the
     speculative duplicate builds the member cleanly and wins the race,
     so the cell should sit near the clean floor, not the stall. *)

module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype
module Monoid = Proteus_model.Monoid
module Registry = Proteus_plugin.Registry
module Hedge = Proteus_resilience.Hedge
module Json = Proteus_format.Json

let rows = 100_000
let shards = 8
let stall_sizes_ms = [ 50; 200 ]

let ev_type =
  Ptype.Record [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float) ]

let csv_chunk lo hi =
  let buf = Buffer.create ((hi - lo) * 16) in
  for i = lo to hi - 1 do
    Buffer.add_string buf (Fmt.str "%d,%d,%d.25\n" i (i mod 7) (i mod 100))
  done;
  Buffer.contents buf

let make_db () =
  let db = Proteus.Db.create () in
  (* raw scans: member sources are built per query, so the injected stall
     fires on every measured run, not just the cold one *)
  Proteus.Db.set_caching db false;
  let per = rows / shards in
  Proteus.Db.register_sharded_csv db ~name:"events" ~element:ev_type
    ~shards:
      (List.init shards (fun s ->
           csv_chunk (s * per) (if s = shards - 1 then rows else (s + 1) * per)))
    ();
  db

let query =
  Plan.reduce
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
        (Expr.Field (Expr.var "x", "price")) ]
    (Plan.scan ~dataset:"events" ~binding:"x" ())

(* Hold one member's build for [ms] whenever the shared budget has a
   token. The measuring thunk refills the budget to 1 per run: the first
   build (the scatter's own) stalls, a hedged duplicate finds the budget
   spent and builds clean — the same asymmetry a real straggler shows a
   re-dispatch. *)
let inject_stall db ~ms =
  let budget = Atomic.make 0 in
  Registry.set_interposer
    (Proteus.Db.registry db)
    (Some
       (fun name genuine ->
         if name <> "events__s3" then genuine
         else
           fun () ->
             let rec claim () =
               let n = Atomic.get budget in
               if n <= 0 then false
               else if Atomic.compare_and_set budget n (n - 1) then true
               else claim ()
             in
             if claim () then Unix.sleepf (float_of_int ms /. 1000.);
             genuine ()));
  budget

(* [hedge_floor_ms] is [None] where hedging is off *)
let cell name ~stall_ms ?hedge_floor_ms t =
  Fmt.pr "   %s, stall=%dms%s: %.2fms@." name stall_ms
    (match hedge_floor_ms with Some f -> Fmt.str ", hedge floor=%gms" f | None -> "")
    (Util.ms t.Util.median);
  Util.record ~figure:"resilience_hedging"
    ~params:
      [
        ("stall_ms", Json.Int stall_ms);
        ( "hedge_floor_ms",
          match hedge_floor_ms with Some f -> Json.Float f | None -> Json.Null );
        ("domains", Json.Int Util.max_domains);
      ]
    name t

let run_all () =
  Fmt.pr "@.== Resilience: straggler hedging vs an injected stall ==@.";
  let run db = ignore (Proteus.Db.run_plan ~domains:Util.max_domains db query) in
  let clean =
    let db = make_db () in
    cell "clean" ~stall_ms:0 (Util.measure_n 9 (fun () -> run db))
  in
  let stalled =
    List.concat_map
      (fun ms ->
        let stalled_unhedged =
          let db = make_db () in
          let budget = inject_stall db ~ms in
          Util.measure_n 5 (fun () ->
              Atomic.set budget 1;
              run db)
        in
        let unhedged = cell "stalled unhedged" ~stall_ms:ms stalled_unhedged in
        let hedge_floor_ms = float_of_int ms /. 2. in
        let stalled_hedged =
          let db = make_db () in
          let budget = inject_stall db ~ms in
          (* floor halfway to the stall: healthy builds stay below the
             threshold (no wasted duplicates), the stalled one crosses it;
             a clean warm-up run seeds the per-member latency EWMAs so the
             3x-median arm is calibrated before measurement starts *)
          Registry.set_hedge (Proteus.Db.registry db)
            (Some (Hedge.create ~floor_ms:hedge_floor_ms ()));
          run db;
          Util.measure_n 5 (fun () ->
              Atomic.set budget 1;
              run db)
        in
        [ unhedged; cell "stalled hedged" ~stall_ms:ms ~hedge_floor_ms stalled_hedged ])
      stall_sizes_ms
  in
  Util.print_note
    "the unhedged cells pay the full stall every run; hedged cells should \
     track the clean floor once the stall exceeds the hedge threshold";
  clean :: stalled
