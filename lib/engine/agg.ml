open Proteus_model

type instance = {
  step : unit -> unit;
  value : unit -> Value.t;
  partial : unit -> Value.t;
}

(* Avg is the one primitive whose final value does not merge: partials
   carry (sum, count) explicitly and [finalize] divides at the end. *)
let avg_partial s n () = Value.record [ ("sum", Value.Float !s); ("n", Value.Int !n) ]

let boxed_factory prim (get : unit -> Value.t) () =
  let acc = Monoid.acc_create prim in
  let value () = Monoid.acc_value acc in
  { step = (fun () -> Monoid.acc_step acc (get ())); value; partial = value }

let factory (m : Monoid.t) (c : Exprc.compiled) : unit -> instance =
  match m, c with
  | Monoid.Primitive Monoid.Count, _ ->
    fun () ->
      let n = ref 0 in
      let value () = Value.Int !n in
      { step = (fun () -> incr n); value; partial = value }
  | Monoid.Primitive Monoid.Sum, Exprc.C_int get ->
    fun () ->
      let s = ref 0 in
      let value () = Value.Int !s in
      { step = (fun () -> s := !s + get ()); value; partial = value }
  | Monoid.Primitive Monoid.Sum, Exprc.C_float get ->
    fun () ->
      (* over no rows a sum is [Int 0], as [Monoid]'s accumulator has it *)
      let s = ref 0. and seen = ref false in
      let value () = if !seen then Value.Float !s else Value.Int 0 in
      {
        step =
          (fun () ->
            s := !s +. get ();
            seen := true);
        value;
        partial = value;
      }
  | Monoid.Primitive Monoid.Max, Exprc.C_int get ->
    fun () ->
      let best = ref min_int and seen = ref false in
      let value () = if !seen then Value.Int !best else Value.Null in
      {
        step =
          (fun () ->
            let v = get () in
            if v > !best then best := v;
            seen := true);
        value;
        partial = value;
      }
  | Monoid.Primitive Monoid.Min, Exprc.C_int get ->
    fun () ->
      let best = ref max_int and seen = ref false in
      let value () = if !seen then Value.Int !best else Value.Null in
      {
        step =
          (fun () ->
            let v = get () in
            if v < !best then best := v;
            seen := true);
        value;
        partial = value;
      }
  | Monoid.Primitive Monoid.Max, Exprc.C_float get ->
    fun () ->
      let best = ref neg_infinity and seen = ref false in
      let value () = if !seen then Value.Float !best else Value.Null in
      {
        step =
          (fun () ->
            let v = get () in
            if v > !best then best := v;
            seen := true);
        value;
        partial = value;
      }
  | Monoid.Primitive Monoid.Min, Exprc.C_float get ->
    fun () ->
      let best = ref infinity and seen = ref false in
      let value () = if !seen then Value.Float !best else Value.Null in
      {
        step =
          (fun () ->
            let v = get () in
            if v < !best then best := v;
            seen := true);
        value;
        partial = value;
      }
  | Monoid.Primitive Monoid.Avg, Exprc.C_int get ->
    fun () ->
      let s = ref 0. and n = ref 0 in
      {
        step =
          (fun () ->
            s := !s +. float_of_int (get ());
            incr n);
        value =
          (fun () -> if !n = 0 then Value.Null else Value.Float (!s /. float_of_int !n));
        partial = avg_partial s n;
      }
  | Monoid.Primitive Monoid.Avg, Exprc.C_float get ->
    fun () ->
      let s = ref 0. and n = ref 0 in
      {
        step =
          (fun () ->
            s := !s +. get ();
            incr n);
        value =
          (fun () -> if !n = 0 then Value.Null else Value.Float (!s /. float_of_int !n));
        partial = avg_partial s n;
      }
  | Monoid.Primitive Monoid.Avg, c ->
    (* boxed Avg keeps explicit (sum, count) state so partials still
       merge; semantics match Monoid.acc_step (Null values skipped) *)
    let get = Exprc.to_val c in
    fun () ->
      let s = ref 0. and n = ref 0 in
      {
        step =
          (fun () ->
            match get () with
            | Value.Null -> ()
            | v ->
              s := !s +. Value.to_float v;
              incr n);
        value =
          (fun () -> if !n = 0 then Value.Null else Value.Float (!s /. float_of_int !n));
        partial = avg_partial s n;
      }
  | Monoid.Primitive Monoid.All, Exprc.C_bool get ->
    fun () ->
      let b = ref true in
      let value () = Value.Bool !b in
      { step = (fun () -> b := !b && get ()); value; partial = value }
  | Monoid.Primitive Monoid.Any, Exprc.C_bool get ->
    fun () ->
      let b = ref false in
      let value () = Value.Bool !b in
      { step = (fun () -> b := !b || get ()); value; partial = value }
  | Monoid.Primitive prim, c -> boxed_factory prim (Exprc.to_val c)
  | Monoid.Collection coll, c ->
    let get = Exprc.to_val c in
    fun () ->
      (* values newest first: the partial reads them out as they are *)
      let acc = ref [] in
      {
        step = (fun () -> acc := get () :: !acc);
        value = (fun () -> Monoid.collect coll (List.rev !acc));
        partial = (fun () -> Value.list_ !acc);
      }

(* ------------------------------------------------------------------- *)
(* Batch instances: array-level partial loops for the primitive monoids.
   Every vectorized step folds the selected lanes *in selection order*
   with exactly the operations of the scalar [step] above, so a batch
   aggregate is bit-identical (floats included) to stepping the scalar
   instance tuple-by-tuple in the same order. *)

type binstance = {
  bstep : base:int -> sel:int array -> n:int -> unit;
  bvalue : unit -> Value.t;
  bpartial : unit -> Value.t;
}

let batch_factory (m : Monoid.t) ~(seek : int -> unit) ~(scalar : Exprc.compiled)
    ~(batch : Exprc.bcompiled option) : unit -> binstance =
  match m, batch with
  | Monoid.Primitive Monoid.Count, _ ->
    fun () ->
      let n_acc = ref 0 in
      let value () = Value.Int !n_acc in
      {
        bstep = (fun ~base:_ ~sel:_ ~n -> n_acc := !n_acc + n);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Sum, Some (Exprc.B_int (buf, k)) ->
    fun () ->
      let s = ref 0 in
      let value () = Value.Int !s in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              s := !s + buf.(sel.(i))
            done);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Sum, Some (Exprc.B_float (buf, k)) ->
    fun () ->
      let s = ref 0. and seen = ref false in
      let value () = if !seen then Value.Float !s else Value.Int 0 in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              s := !s +. buf.(sel.(i))
            done;
            if n > 0 then seen := true);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Max, Some (Exprc.B_int (buf, k)) ->
    fun () ->
      let best = ref min_int and seen = ref false in
      let value () = if !seen then Value.Int !best else Value.Null in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              let v = buf.(sel.(i)) in
              if v > !best then best := v
            done;
            if n > 0 then seen := true);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Min, Some (Exprc.B_int (buf, k)) ->
    fun () ->
      let best = ref max_int and seen = ref false in
      let value () = if !seen then Value.Int !best else Value.Null in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              let v = buf.(sel.(i)) in
              if v < !best then best := v
            done;
            if n > 0 then seen := true);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Max, Some (Exprc.B_float (buf, k)) ->
    fun () ->
      let best = ref neg_infinity and seen = ref false in
      let value () = if !seen then Value.Float !best else Value.Null in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              let v = buf.(sel.(i)) in
              if v > !best then best := v
            done;
            if n > 0 then seen := true);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Min, Some (Exprc.B_float (buf, k)) ->
    fun () ->
      let best = ref infinity and seen = ref false in
      let value () = if !seen then Value.Float !best else Value.Null in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              let v = buf.(sel.(i)) in
              if v < !best then best := v
            done;
            if n > 0 then seen := true);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Avg, Some (Exprc.B_int (buf, k)) ->
    fun () ->
      let s = ref 0. and cnt = ref 0 in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              s := !s +. float_of_int buf.(sel.(i))
            done;
            cnt := !cnt + n);
        bvalue =
          (fun () ->
            if !cnt = 0 then Value.Null else Value.Float (!s /. float_of_int !cnt));
        bpartial = avg_partial s cnt;
      }
  | Monoid.Primitive Monoid.Avg, Some (Exprc.B_float (buf, k)) ->
    fun () ->
      let s = ref 0. and cnt = ref 0 in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              s := !s +. buf.(sel.(i))
            done;
            cnt := !cnt + n);
        bvalue =
          (fun () ->
            if !cnt = 0 then Value.Null else Value.Float (!s /. float_of_int !cnt));
        bpartial = avg_partial s cnt;
      }
  | Monoid.Primitive Monoid.All, Some (Exprc.B_bool (buf, k)) ->
    fun () ->
      let b = ref true in
      let value () = Value.Bool !b in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              b := !b && buf.(sel.(i))
            done);
        bvalue = value;
        bpartial = value;
      }
  | Monoid.Primitive Monoid.Any, Some (Exprc.B_bool (buf, k)) ->
    fun () ->
      let b = ref false in
      let value () = Value.Bool !b in
      {
        bstep =
          (fun ~base ~sel ~n ->
            k ~base ~sel ~n;
            for i = 0 to n - 1 do
              b := !b || buf.(sel.(i))
            done);
        bvalue = value;
        bpartial = value;
      }
  | _ ->
    (* per-lane seek + scalar step: correct for every combo the vector cases
       above don't cover (collections, boxed, nullable, date exprs) *)
    let mk = factory m scalar in
    fun () ->
      let inst = mk () in
      {
        bstep =
          (fun ~base ~sel ~n ->
            for i = 0 to n - 1 do
              seek (base + sel.(i));
              inst.step ()
            done);
        bvalue = inst.value;
        bpartial = inst.partial;
      }

(* A collection partial lists its values newest first; [finalize] reverses
   them once. *)
let newest_first (v : Value.t) =
  match v with
  | Value.Coll (Ptype.List, vs) -> vs
  | v -> Perror.type_error "malformed collection partial: %a" Value.pp v

let merge (m : Monoid.t) (a : Value.t) (b : Value.t) : Value.t =
  match m with
  | Monoid.Primitive Monoid.Count ->
    (* the generic fold-both-partials trick would count the partials
       themselves; Count partials add *)
    Value.Int (Value.to_int a + Value.to_int b)
  | Monoid.Primitive Monoid.Avg -> (
    match
      ( Value.field_opt a "sum", Value.field_opt a "n",
        Value.field_opt b "sum", Value.field_opt b "n" )
    with
    | Some (Value.Float sa), Some (Value.Int na), Some (Value.Float sb), Some (Value.Int nb)
      ->
      Value.record [ ("sum", Value.Float (sa +. sb)); ("n", Value.Int (na + nb)) ]
    | _ -> Perror.type_error "malformed Avg partial: %a / %a" Value.pp a Value.pp b)
  | Monoid.Primitive prim ->
    (* associative-commutative monoids merge by folding both partials into a
       fresh accumulator; Null partials (empty Min/Max) are skipped by
       acc_step *)
    let acc = Monoid.acc_create prim in
    Monoid.acc_step acc a;
    Monoid.acc_step acc b;
    Monoid.acc_value acc
  | Monoid.Collection _ ->
    (* [a] holds the earlier values: only the later part is copied, so a left
       fold over many parts stays linear in the values *)
    Value.list_ (newest_first b @ newest_first a)

let finalize (m : Monoid.t) (v : Value.t) : Value.t =
  match m with
  | Monoid.Primitive Monoid.Avg -> (
    match Value.field_opt v "sum", Value.field_opt v "n" with
    | Some (Value.Float s), Some (Value.Int n) ->
      if n = 0 then Value.Null else Value.Float (s /. float_of_int n)
    | _ -> Perror.type_error "malformed Avg partial: %a" Value.pp v)
  | Monoid.Collection coll -> Monoid.collect coll (List.rev (newest_first v))
  | Monoid.Primitive _ -> v
