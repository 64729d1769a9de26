(* Zone maps over cached columns: per-zone min/max side structures built at
   cache-fill commit (or in one pass at promotion), consulted by the engine
   to skip whole morsels/batches that cannot satisfy a pushed-down
   comparison conjunct.

   Soundness rests on the engine's null semantics: [Expr.cmp] maps any
   comparison with a Null operand to [Bool false], so a zone that holds
   only nulls can never produce a qualifying row and is skippable outright,
   and a zone whose non-null bounds exclude the constant is skippable even
   when nulls are interleaved.

   Determinism: callers size zones with [zone_rows], the formula the
   morsel dispenser sizes morsels with, so the zone grid is a pure
   function of the row count — independent of the domain count or batch
   size that happened to fill the cache — and zones line up 1:1 with
   full-scan morsels. A map extended over appended rows keeps the width it
   was built with; its zones then straddle morsels, which
   [may_match_range] handles exactly.

   A shard digest is the same summary with one zone of width [rows]: the
   whole member, refuted or not as one range. *)

type bounds =
  | Z_int of int array * int array     (* per-zone lo / hi over non-nulls *)
  | Z_float of float array * float array
  | Z_str of string array * string array
      (* per-zone lexicographic lo / hi over decoded dictionary entries *)

type t = {
  zone : int;        (* rows per zone (last zone may be short) *)
  rows : int;        (* total rows covered *)
  bounds : bounds;
  empty : bool array; (* zone has no non-null row: always skippable *)
}

(* The row grid of zones and of scan morsels: [Pool.Dispenser] sizes its
   morsels with this function too, so zones align with scan morsels. *)
let zone_rows total = max 16 (min 8192 (max 1 (total / 64)))

let zones t = Array.length t.empty

(* Comparison tests the engine can push into a zone check. The operand
   order is column-op-constant; callers flip the operator when the conjunct
   was written constant-first. *)
type op = Eq | Lt | Le | Gt | Ge

type test = T_int of op * int | T_float of op * float | T_str of op * string

(* Zone bounds over [col], reusing [prev]'s complete zones: only the zone
   [prev] left partial and the zones past it are computed. [prev] must
   describe a prefix of [col] at the same zone width and bound kind;
   anything else recomputes from row 0. *)
let build ?prev ~zone (col : Column.t) : t option =
  let seed n ~kind lo0 hi0 =
    (* per-zone arrays of [nz] zones, the first [z0] taken from [prev] *)
    let nz = (n + zone - 1) / zone in
    let z0, plo, phi, pempty =
      match prev with
      | Some p when p.zone = zone && p.rows <= n -> (
        match kind p.bounds with
        | Some (plo, phi) -> (p.rows / zone, plo, phi, p.empty)
        | None -> (0, [||], [||], [||]))
      | _ -> (0, [||], [||], [||])
    in
    let lo = Array.make nz lo0 and hi = Array.make nz hi0 in
    let empty = Array.make nz true in
    Array.blit plo 0 lo 0 z0;
    Array.blit phi 0 hi 0 z0;
    Array.blit pempty 0 empty 0 z0;
    (z0 * zone, lo, hi, empty)
  in
  let build n get_int get_float =
    if n = 0 then None
    else begin
      let bounds, empty =
        match get_int, get_float with
        | Some geti, _ ->
          let from, lo, hi, empty =
            seed n max_int min_int ~kind:(function Z_int (l, h) -> Some (l, h) | _ -> None)
          in
          for i = from to n - 1 do
            match geti i with
            | None -> ()
            | Some v ->
              let z = i / zone in
              empty.(z) <- false;
              if v < lo.(z) then lo.(z) <- v;
              if v > hi.(z) then hi.(z) <- v
          done;
          (Some (Z_int (lo, hi)), empty)
        | None, Some getf ->
          let from, lo, hi, empty =
            seed n infinity neg_infinity
              ~kind:(function Z_float (l, h) -> Some (l, h) | _ -> None)
          in
          for i = from to n - 1 do
            match getf i with
            | None -> ()
            | Some v ->
              let z = i / zone in
              empty.(z) <- false;
              (* [Float.compare] order, as [Expr.cmp]: a NaN is the lowest *)
              if Float.compare v lo.(z) < 0 then lo.(z) <- v;
              if Float.compare v hi.(z) > 0 then hi.(z) <- v
          done;
          (Some (Z_float (lo, hi)), empty)
        | None, None -> (None, [||])
      in
      match bounds with
      | Some bounds -> Some { zone; rows = n; bounds; empty }
      | None -> None
    end
  in
  (* Strings share the loop shape but need an explicit first-value seed
     (there is no lexicographic sentinel). Dictionary columns decode per
     row — codes index a small dict, so the decode is one array read;
     plain string columns need no dictionary at all. *)
  let build_str n get =
    if n = 0 then None
    else begin
      let from, lo, hi, empty =
        seed n "" "" ~kind:(function Z_str (l, h) -> Some (l, h) | _ -> None)
      in
      for i = from to n - 1 do
        match get i with
        | None -> ()
        | Some v ->
          let z = i / zone in
          if empty.(z) then begin
            empty.(z) <- false;
            lo.(z) <- v;
            hi.(z) <- v
          end
          else begin
            if String.compare v lo.(z) < 0 then lo.(z) <- v;
            if String.compare v hi.(z) > 0 then hi.(z) <- v
          end
      done;
      Some { zone; rows = n; bounds = Z_str (lo, hi); empty }
    end
  in
  match col with
  | Column.Ints a ->
    build (Array.length a) (Some (fun i -> Some a.(i))) None
  | Column.Floats a ->
    build (Array.length a) None (Some (fun i -> Some a.(i)))
  | Column.Nullmask (mask, Column.Ints a) ->
    build (Array.length a)
      (Some (fun i -> if mask.(i) then None else Some a.(i)))
      None
  | Column.Nullmask (mask, Column.Floats a) ->
    build (Array.length a) None
      (Some (fun i -> if mask.(i) then None else Some a.(i)))
  | Column.Dicts (codes, dict) ->
    build_str (Array.length codes) (fun i -> Some dict.(codes.(i)))
  | Column.Nullmask (mask, Column.Dicts (codes, dict)) ->
    build_str (Array.length codes) (fun i ->
        if mask.(i) then None else Some dict.(codes.(i)))
  | Column.Strings a -> build_str (Array.length a) (fun i -> Some a.(i))
  | Column.Nullmask (mask, Column.Strings a) ->
    build_str (Array.length a) (fun i -> if mask.(i) then None else Some a.(i))
  | Column.Bools _ | Column.Nullmask _ -> None

let of_column ?zone (col : Column.t) : t option =
  let zone = match zone with Some z -> max 1 z | None -> zone_rows (Column.length col) in
  build ~zone col

(* After an append: the column grew past the rows [t] covers. The zone
   width stays [t]'s, so [t]'s complete zones carry over unchanged and the
   result equals [of_column ~zone:t.zone col]. *)
let extend t (col : Column.t) = build ~prev:t ~zone:t.zone col

(* Float bounds against a float constant, compared the way [Expr.cmp]
   compares floats: [Float.compare], whose total order puts NaN below every
   other float (IEEE operators would refute [x > nan] and miss a NaN row
   under [x < c]). *)
let float_may_match lo hi op c =
  match op with
  | Eq -> Float.compare lo c <= 0 && Float.compare c hi <= 0
  | Lt -> Float.compare lo c < 0
  | Le -> Float.compare lo c <= 0
  | Gt -> Float.compare hi c > 0
  | Ge -> Float.compare hi c >= 0

(* Can any non-null row of zone [z] satisfy [column op constant]?
   Conservative: [true] means "maybe", [false] is a proof of no match. *)
let zone_may_match t z (test : test) =
  if t.empty.(z) then false
  else
    match t.bounds, test with
    | Z_int (lo, hi), T_int (op, c) -> (
      match op with
      | Eq -> lo.(z) <= c && c <= hi.(z)
      | Lt -> lo.(z) < c
      | Le -> lo.(z) <= c
      | Gt -> hi.(z) > c
      | Ge -> hi.(z) >= c)
    | Z_int (lo, hi), T_float (op, c) ->
      (* [Expr.cmp] compares Int-vs-Float through float conversion *)
      float_may_match (float_of_int lo.(z)) (float_of_int hi.(z)) op c
    | Z_float (lo, hi), T_float (op, c) -> float_may_match lo.(z) hi.(z) op c
    | Z_float (lo, hi), T_int (op, c) -> float_may_match lo.(z) hi.(z) op (float_of_int c)
    | Z_str (lo, hi), T_str (op, c) -> (
      (* [Expr.cmp] orders strings with [String.compare] *)
      let clo = String.compare lo.(z) c and chi = String.compare hi.(z) c in
      match op with
      | Eq -> clo <= 0 && chi >= 0
      | Lt -> clo < 0
      | Le -> clo <= 0
      | Gt -> chi > 0
      | Ge -> chi >= 0)
    (* mixed kinds: [Expr.cmp] falls back to [Value.compare], which ranks
       every number (and date) below every string, so the operator alone
       decides any non-empty zone *)
    | Z_str _, (T_int (op, _) | T_float (op, _)) -> (
      match op with Gt | Ge -> true | Eq | Lt | Le -> false)
    | (Z_int _ | Z_float _), T_str (op, _) -> (
      match op with Lt | Le -> true | Eq | Gt | Ge -> false)

(* Can any row in [\[lo, hi)] satisfy the test? Checks every overlapping
   zone, so it is exact for ranges of any alignment (batches need not line
   up with the zone grid). Rows past [t.rows] are treated as "maybe" —
   a zone map never claims knowledge beyond the column it was built on. *)
let may_match_range t ~lo ~hi (test : test) =
  if hi <= lo then false
  else if lo >= t.rows then true
  else begin
    let hi_capped = min hi t.rows in
    let z0 = lo / t.zone and z1 = (hi_capped - 1) / t.zone in
    let rec go z = z <= z1 && (zone_may_match t z test || go (z + 1)) in
    go z0 || hi > t.rows
  end

(* Value bounds of the non-null rows in [\[lo, hi)], for join-probe pruning:
   the caller intersects them with the build side's key range. [R_all_null]
   is a proof the range holds no comparable value at all. [None] = no claim
   (rows beyond coverage, or non-numeric bounds). Zone-granular, hence a
   conservative superset for ranges not aligned to the zone grid. *)
type range_info = R_all_null | R_int of int * int | R_float of float * float

let range_bounds t ~lo ~hi : range_info option =
  if hi <= lo then Some R_all_null
  else if lo >= t.rows || hi > t.rows then None
  else begin
    let z0 = lo / t.zone and z1 = (hi - 1) / t.zone in
    match t.bounds with
    | Z_int (blo, bhi) ->
      let mn = ref max_int and mx = ref min_int and seen = ref false in
      for z = z0 to z1 do
        if not t.empty.(z) then begin
          seen := true;
          if blo.(z) < !mn then mn := blo.(z);
          if bhi.(z) > !mx then mx := bhi.(z)
        end
      done;
      Some (if !seen then R_int (!mn, !mx) else R_all_null)
    | Z_float (blo, bhi) ->
      let mn = ref infinity and mx = ref neg_infinity and seen = ref false in
      for z = z0 to z1 do
        if not t.empty.(z) then begin
          seen := true;
          if Float.compare blo.(z) !mn < 0 then mn := blo.(z);
          if Float.compare bhi.(z) !mx > 0 then mx := bhi.(z)
        end
      done;
      Some (if !seen then R_float (!mn, !mx) else R_all_null)
    | Z_str _ -> None
  end

let byte_size t =
  let b =
    match t.bounds with
    | Z_int (lo, hi) -> 8 * (Array.length lo + Array.length hi)
    | Z_float (lo, hi) -> 8 * (Array.length lo + Array.length hi)
    | Z_str (lo, hi) ->
      Array.fold_left (fun a s -> a + String.length s + 16) 0 lo
      + Array.fold_left (fun a s -> a + String.length s + 16) 0 hi
  in
  b + Array.length t.empty
