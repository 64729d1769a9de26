open Proteus_model
open Proteus_plugin
module Plan = Proteus_algebra.Plan
module Zonemap = Proteus_storage.Zonemap
module Projection = Proteus_storage.Projection
module Bloom = Proteus_storage.Bloom

(* ------------------------------------------------------------------ *)
(* Conjuncts: [binding.path op (Const | Param)], either operand order.  *)

let flip = function
  | Expr.Lt -> Expr.Gt
  | Expr.Gt -> Expr.Lt
  | Expr.Le -> Expr.Ge
  | Expr.Ge -> Expr.Le
  | op -> op

let conjuncts ~binding pred =
  let column e =
    match Proteus_algebra.Analysis.path_of e with
    | Some (v, path) when String.equal v binding && path <> "" -> Some path
    | _ -> None
  in
  let operand (e : Expr.t) =
    match e with Expr.Const _ | Expr.Param _ -> true | _ -> false
  in
  List.filter_map
    (fun (c : Expr.t) ->
      match c with
      | Expr.Binop (op, l, r) -> (
        match column l, column r with
        | Some path, _ when operand r -> Some (path, op, r)
        | _, Some path when operand l -> Some (path, flip op, l)
        | _ -> None)
      | _ -> None)
    (Expr.conjuncts pred)

let zone_op = function
  | Expr.Eq -> Some Zonemap.Eq
  | Expr.Lt -> Some Zonemap.Lt
  | Expr.Le -> Some Zonemap.Le
  | Expr.Gt -> Some Zonemap.Gt
  | Expr.Ge -> Some Zonemap.Ge
  | _ -> None

let cmp_test op (v : Value.t) =
  match zone_op op, v with
  | Some o, (Value.Int i | Value.Date i) ->
    (* dates cache as int columns *)
    Some (Zonemap.T_int (o, i))
  | Some o, Value.Float f -> Some (Zonemap.T_float (o, f))
  | Some o, Value.String s -> Some (Zonemap.T_str (o, s))
  | _ -> None

(* The promotion signal is wider than the testable conjuncts: inequality
   and LIKE also mark a column selective (that is how never-cached string
   columns earn their dictionary promotion); range comparisons add the
   [~ranged] bit that makes a sorted projection pay off. *)
let note_selective (cache : Cache_iface.t) ~dataset ~binding pred =
  let cs = conjuncts ~binding pred in
  let paths ops =
    List.sort_uniq String.compare
      (List.filter_map (fun (path, op, _) -> if List.mem op ops then Some path else None) cs)
  in
  let ranged = paths Expr.[ Lt; Le; Gt; Ge ] in
  List.iter
    (fun path ->
      cache.Cache_iface.note_selective ~dataset ~path ~ranged:(List.mem path ranged))
    (paths Expr.[ Eq; Neq; Lt; Le; Gt; Ge; Like ])

(* ------------------------------------------------------------------ *)
(* Tests, summaries and the one refutation test.                       *)

type keys = {
  k_min : int;
  k_max : int;
  k_small : int array option;
  k_bloom : Bloom.t Lazy.t;
}

type test = Cmp of Zonemap.test list | In of keys | Nothing

let keys ks =
  let n = Array.length ks in
  if n = 0 then Nothing
  else begin
    let lo = ref ks.(0) and hi = ref ks.(0) in
    Array.iter
      (fun k ->
        if k < !lo then lo := k;
        if k > !hi then hi := k)
      ks;
    let small =
      if n > 1024 then None
      else begin
        let s = Array.copy ks in
        Array.sort compare s;
        let m = ref 1 in
        for i = 1 to n - 1 do
          if s.(i) <> s.(!m - 1) then begin
            s.(!m) <- s.(i);
            incr m
          end
        done;
        if !m <= 64 then Some (Array.sub s 0 !m) else None
      end
    in
    let bloom =
      lazy
        (let b = Bloom.create n in
         Array.iter (fun k -> Bloom.add b (Bloom.key_int k)) ks;
         b)
    in
    In { k_min = !lo; k_max = !hi; k_small = small; k_bloom = bloom }
  end

type summary =
  | Zones of Zonemap.t
  | Band of Projection.t * bool array
  | Digest of Registry.shard_digest

let seek pr test =
  let bits =
    match test with
    | Nothing -> None
    | Cmp ts -> Projection.zones_for pr ts
    | In { k_small = Some s; _ } ->
      Projection.zones_union pr
        (Array.to_list (Array.map (fun k -> Zonemap.T_int (Zonemap.Eq, k)) s))
    | In k ->
      Projection.zones_for pr
        [ Zonemap.T_int (Zonemap.Ge, k.k_min); Zonemap.T_int (Zonemap.Le, k.k_max) ]
  in
  Option.map
    (fun b ->
      Counters.add_sorted_seeks 1;
      Band (pr, b))
    bits

let rec may_match summary test ~lo ~hi =
  match summary, test with
  | _, Nothing -> false
  | Zones zm, Cmp ts -> List.for_all (Zonemap.may_match_range zm ~lo ~hi) ts
  | Zones zm, In { k_small = Some s; _ } ->
    Array.exists
      (fun k -> Zonemap.may_match_range zm ~lo ~hi (Zonemap.T_int (Zonemap.Eq, k)))
      s
  | Zones zm, In k -> (
    match Zonemap.range_bounds zm ~lo ~hi with
    | None -> true
    | Some Zonemap.R_all_null -> false (* Null never equals an Inner join key *)
    | Some (Zonemap.R_float (zlo, zhi)) ->
      not (zhi < float_of_int k.k_min || zlo > float_of_int k.k_max)
    | Some (Zonemap.R_int (zlo, zhi)) ->
      (* a narrow overlap is refuted when every candidate key is also
         Bloom-absent from the build *)
      let plo = max zlo k.k_min and phi = min zhi k.k_max in
      let span = phi - plo (* negative on overflow: a wide span *) in
      plo <= phi
      && (span < 0 || span > 256
         ||
         let bloom = Lazy.force k.k_bloom in
         let rec hit i = i <= span && (Bloom.mem bloom (Bloom.key_int (plo + i)) || hit (i + 1)) in
         hit 0))
  | Band (pr, bits), _ -> Projection.range_may_match pr bits ~lo ~hi
  | Digest { Registry.sd_zones = zm; sd_bloom }, _ ->
    (* The Bloom filter first: an equality constant, or every one of a
       few join keys, whose canonical key is absent holds on no row the
       digest describes (keys are canonical across numeric kinds and never
       shared by a number and a string, as [Expr.cmp] equality; a NaN has
       many bit patterns, so no key). The zone map decides the rest. *)
    let absent = function
      | _ when hi > zm.Zonemap.rows -> false
      | Zonemap.T_int (Zonemap.Eq, c) -> not (Bloom.mem sd_bloom (Bloom.key_int c))
      | Zonemap.T_float (Zonemap.Eq, c) ->
        (not (Float.is_nan c)) && not (Bloom.mem sd_bloom (Bloom.key_float c))
      | Zonemap.T_str (Zonemap.Eq, s) -> not (Bloom.mem sd_bloom (Bloom.key_string s))
      | _ -> false
    in
    (match test with
     | Cmp ts -> not (List.exists absent ts)
     | In { k_small = Some s; _ } ->
       not (Array.for_all (fun k -> absent (Zonemap.T_int (Zonemap.Eq, k))) s)
     | In _ | Nothing -> true)
    && may_match (Zones zm) test ~lo ~hi

(* ------------------------------------------------------------------ *)
(* The handle.                                                         *)

type join = {
  kind : Plan.join_kind;
  rows : int;
  probe_key : Expr.t option;
  keys : int array;
}

(* A testable conjunct: constants get a private cell, parameters share
   their engine slot, so arming reads the currently bound value. *)
type cond = {
  c_path : string;
  c_op : Expr.binop;
  c_arg : Value.t ref;
  c_zones : Zonemap.t option;
}

type armed = {
  a_shards : bool;  (** some shard is pruned *)
  a_checks : (summary * test) list;  (** conjunct checks *)
  a_keys : (summary * test) list;  (** join-key checks *)
  a_empty : bool;  (** an Inner build side is empty *)
}

type t = {
  reg : Registry.t;
  slots : (string * Value.t ref) list;
  dataset : string;
  binding : string;
  filling : bool;
  mutable conds : cond list;
  mutable sorted : (string * Projection.t * (Zonemap.test list * summary option) option ref) list;
      (** one per projected path, with the last seek (reused while the
          bound values stay the same) *)
  mutable joins : (unit -> join list) list;
  shards : Registry.shard_info array;
  pruned : bool array;
  mutable armed : armed option;
}

let add_pred t pred =
  let cache = Registry.cache t.reg in
  List.iter
    (fun (path, op, (arg : Expr.t)) ->
      let cell =
        match arg with
        | Expr.Const v -> Some (ref v)
        | Expr.Param p -> List.assoc_opt p t.slots
        | _ -> None
      in
      match cell, zone_op op with
      | Some cell, Some _ ->
        let c_zones = cache.Cache_iface.lookup_zones ~dataset:t.dataset ~path in
        t.conds <- t.conds @ [ { c_path = path; c_op = op; c_arg = cell; c_zones } ];
        if not (List.exists (fun (p, _, _) -> String.equal p path) t.sorted) then (
          match cache.Cache_iface.lookup_projection ~dataset:t.dataset ~path with
          | Some pr -> t.sorted <- t.sorted @ [ (path, pr, ref None) ]
          | None -> ())
      | _ -> ())
    (conjuncts ~binding:t.binding pred)

let create reg ~slots ~dataset ~binding ~filling preds =
  let shards = Option.value (Registry.shards reg dataset) ~default:[||] in
  let t =
    {
      reg;
      slots;
      dataset;
      binding;
      filling;
      conds = [];
      sorted = [];
      joins = [];
      shards;
      pruned = Array.make (Array.length shards) false;
      armed = None;
    }
  in
  List.iter (add_pred t) preds;
  t

let note t pred =
  note_selective (Registry.cache t.reg) ~dataset:t.dataset ~binding:t.binding pred

let add_joins t f = t.joins <- t.joins @ [ f ]

(* Left-outer joins pass unmatched probe rows through: never a test. *)
let join_test ~binding j =
  if j.kind <> Plan.Inner then None
  else if j.rows = 0 then Some ("", Nothing)
  else
    match Option.bind j.probe_key Proteus_algebra.Analysis.path_of with
    | Some (v, path) when String.equal v binding && path <> "" && Array.length j.keys > 0 ->
      Some (path, keys j.keys)
    | _ -> None

(* Mark every shard some test refutes from its per-member digest. An open
   breaker means the scatter skips that member anyway: no digest build. *)
let prune_shards t tests =
  let pruned = ref 0 in
  Array.iteri
    (fun i (sh : Registry.shard_info) ->
      let p =
        sh.Registry.sh_rows > 0
        && (not (Registry.breaker_blocked t.reg sh.Registry.sh_member))
        && List.exists
             (fun (path, test) ->
               match test with
               | Nothing -> true
               | _ -> (
                 match Registry.shard_digest t.reg ~member:sh.Registry.sh_member ~path with
                 | None -> false
                 | Some dg ->
                   Counters.add_zone_checks 1;
                   not (may_match (Digest dg) test ~lo:0 ~hi:sh.Registry.sh_rows)))
             tests
      in
      t.pruned.(i) <- p;
      if p then incr pruned)
    t.shards;
  if !pruned > 0 then Counters.add_shards_pruned !pruned;
  !pruned > 0

let arm t =
  Array.fill t.pruned 0 (Array.length t.pruned) false;
  t.armed <- None;
  (* The stand-down predicate. A filling scan owns an OID-aligned cache
     segment for every batch or morsel, so a skip would leave holes. Under
     Skip_row / Null_fill the per-row error tallies are part of the result,
     and a skip would change which faulty rows get probed. Under Fail_fast
     a skip is no different from a warm cache hit. *)
  if (not t.filling) && Fault.policy () = Fault.Fail_fast then begin
    let cmps =
      List.filter_map
        (fun c -> Option.map (fun test -> (c, test)) (cmp_test c.c_op !(c.c_arg)))
        t.conds
    in
    let joins =
      List.filter_map (join_test ~binding:t.binding) (List.concat_map (fun f -> f ()) t.joins)
    in
    let zone_checks =
      List.filter_map
        (fun (c, test) -> Option.map (fun zm -> (Zones zm, Cmp [ test ])) c.c_zones)
        cmps
    in
    (* one band per projected path: the conjunction of its conjuncts *)
    let band_checks =
      List.filter_map
        (fun (path, pr, memo) ->
          match
            List.filter_map
              (fun (c, test) -> if String.equal c.c_path path then Some test else None)
              cmps
          with
          | [] -> None
          | ts ->
            let band =
              match !memo with
              | Some (ts', band) when ts' = ts -> band
              | _ ->
                let band = seek pr (Cmp ts) in
                memo := Some (ts, band);
                band
            in
            Option.map (fun b -> (b, Cmp ts)) band)
        t.sorted
    in
    let cache = Registry.cache t.reg in
    let key_checks =
      List.filter_map
        (fun (path, test) ->
          match test with
          | Nothing -> None
          | _ -> (
            match cache.Cache_iface.lookup_projection ~dataset:t.dataset ~path with
            | Some pr -> Option.map (fun b -> (b, test)) (seek pr test)
            | None ->
              Option.map
                (fun zm ->
                  (* force the build-key Bloom filter here, before any
                     worker domain reads it *)
                  (match test with In k -> ignore (Lazy.force k.k_bloom) | _ -> ());
                  (Zones zm, test))
                (cache.Cache_iface.lookup_zones ~dataset:t.dataset ~path)))
        joins
    in
    let empty = List.exists (function _, Nothing -> true | _ -> false) joins in
    let shard_tests = List.map (fun (c, test) -> (c.c_path, Cmp [ test ])) cmps @ joins in
    let shards = shard_tests <> [] && prune_shards t shard_tests in
    let a_checks = zone_checks @ band_checks in
    if shards || a_checks <> [] || key_checks <> [] || empty then
      t.armed <- Some { a_shards = shards; a_checks; a_keys = key_checks; a_empty = empty }
  end

(* [true] iff every shard overlapping [lo, hi) is pruned (empty shards
   overlap nothing). *)
let shards_skip t ~lo ~hi =
  let layout = t.shards in
  let n = Array.length layout in
  hi > lo
  && begin
       (* first shard whose end exceeds lo *)
       let l = ref 0 and r = ref (n - 1) in
       while !l < !r do
         let mid = (!l + !r) / 2 in
         let sh = layout.(mid) in
         if sh.Registry.sh_offset + sh.Registry.sh_rows > lo then r := mid else l := mid + 1
       done;
       let i = ref !l in
       let ok = ref true in
       while !ok && !i < n && layout.(!i).Registry.sh_offset < hi do
         let sh = layout.(!i) in
         if
           sh.Registry.sh_rows > 0
           && sh.Registry.sh_offset + sh.Registry.sh_rows > lo
           && not t.pruned.(!i)
         then ok := false;
         incr i
       done;
       !ok
     end

let refutes ~lo ~hi (summary, test) =
  Counters.add_zone_checks 1;
  not (may_match summary test ~lo ~hi)

let skip t ~lo ~hi =
  match t.armed with
  | None -> false
  | Some a ->
    let hit =
      (a.a_shards && shards_skip t ~lo ~hi)
      || List.exists (refutes ~lo ~hi) a.a_checks
      || ((a.a_empty || List.exists (refutes ~lo ~hi) a.a_keys)
         && begin
              Counters.add_probe_morsels_skipped 1;
              true
            end)
    in
    if hit then Counters.add_morsels_skipped 1;
    hit
