type primitive = Sum | Prod | Min | Max | Avg | Count | All | Any

type t = Primitive of primitive | Collection of Ptype.coll

let primitive_name = function
  | Sum -> "sum"
  | Prod -> "prod"
  | Min -> "min"
  | Max -> "max"
  | Avg -> "avg"
  | Count -> "count"
  | All -> "all"
  | Any -> "any"

let pp ppf = function
  | Primitive p -> Fmt.string ppf (primitive_name p)
  | Collection Ptype.Bag -> Fmt.string ppf "bag"
  | Collection Ptype.Set -> Fmt.string ppf "set"
  | Collection Ptype.List -> Fmt.string ppf "list"

let to_string m = Fmt.str "%a" pp m

let equal a b = a = b

(* Numeric accumulators keep both an int and a float lane: integer inputs
   accumulate exactly in the int lane until a float appears, at which point
   the state is widened once. *)
type num_state = { mutable i : int; mutable f : float; mutable is_float : bool }

type acc =
  | Acc_sum of num_state
  | Acc_prod of num_state
  | Acc_min of { mutable best : Value.t option }
  | Acc_max of { mutable best : Value.t option }
  | Acc_avg of { mutable sum : float; mutable n : int }
  | Acc_count of { mutable n : int }
  | Acc_all of { mutable b : bool }
  | Acc_any of { mutable b : bool }

let acc_create = function
  | Sum -> Acc_sum { i = 0; f = 0.; is_float = false }
  | Prod -> Acc_prod { i = 1; f = 1.; is_float = false }
  | Min -> Acc_min { best = None }
  | Max -> Acc_max { best = None }
  | Avg -> Acc_avg { sum = 0.; n = 0 }
  | Count -> Acc_count { n = 0 }
  | All -> Acc_all { b = true }
  | Any -> Acc_any { b = false }

let widen (s : num_state) =
  if not s.is_float then begin
    s.f <- float_of_int s.i;
    s.is_float <- true
  end

let num_step s ~int_op ~float_op v =
  match (v : Value.t) with
  | Int i -> if s.is_float then s.f <- float_op s.f (float_of_int i) else s.i <- int_op s.i i
  | Float f ->
    widen s;
    s.f <- float_op s.f f
  | Null -> ()
  | v -> Perror.type_error "numeric aggregate over %a" Value.pp v

let acc_step acc v =
  match acc with
  | Acc_sum s -> num_step s ~int_op:( + ) ~float_op:( +. ) v
  | Acc_prod s -> num_step s ~int_op:( * ) ~float_op:( *. ) v
  | Acc_min st -> begin
    match v with
    | Value.Null -> ()
    | v -> (
      match st.best with
      | None -> st.best <- Some v
      | Some b -> if Value.compare v b < 0 then st.best <- Some v)
  end
  | Acc_max st -> begin
    match v with
    | Value.Null -> ()
    | v -> (
      match st.best with
      | None -> st.best <- Some v
      | Some b -> if Value.compare v b > 0 then st.best <- Some v)
  end
  | Acc_avg st -> begin
    match v with
    | Value.Null -> ()
    | v ->
      st.sum <- st.sum +. Value.to_float v;
      st.n <- st.n + 1
  end
  | Acc_count st -> st.n <- st.n + 1
  | Acc_all st -> st.b <- st.b && Value.to_bool v
  | Acc_any st -> st.b <- st.b || Value.to_bool v

let num_value (s : num_state) : Value.t = if s.is_float then Float s.f else Int s.i

let acc_value = function
  | Acc_sum s -> num_value s
  | Acc_prod s -> num_value s
  | Acc_min { best } | Acc_max { best } -> ( match best with None -> Value.Null | Some v -> v)
  | Acc_avg { sum; n } -> if n = 0 then Value.Null else Value.Float (sum /. float_of_int n)
  | Acc_count { n } -> Value.Int n
  | Acc_all { b } -> Value.Bool b
  | Acc_any { b } -> Value.Bool b

let collect c vs =
  match (c : Ptype.coll) with
  | Bag -> Value.bag vs
  | List -> Value.list_ vs
  | Set -> Value.set vs
