open Proteus_model
open Proteus_storage

type 'a fill = int -> 'a array -> sel:int array -> n:int -> unit
type 'a reader = { get : unit -> 'a; fill : 'a fill option }

type lane =
  | Int of int reader
  | Date of int reader
  | Float of float reader
  | Bool of bool reader
  | Str of string reader
  | Boxed

type t = {
  ty : Ptype.t;
  null : (unit -> bool) option;
  lane : lane;
  get_val : unit -> Value.t;
  (* dictionary metadata for promoted string columns: the [Str] lane still
     produces decoded strings; kernels that can work on codes read the
     (codes, dict) pair directly *)
  dict : (int array * string array) option;
}

let prim ?null lane =
  let ty, get_val =
    match lane with
    | Int { get; _ } -> (Ptype.Int, fun () -> Value.Int (get ()))
    | Date { get; _ } -> (Ptype.Date, fun () -> Value.Date (get ()))
    | Float { get; _ } -> (Ptype.Float, fun () -> Value.Float (get ()))
    | Bool { get; _ } -> (Ptype.Bool, fun () -> Value.Bool (get ()))
    | Str { get; _ } -> (Ptype.String, fun () -> Value.String (get ()))
    | Boxed -> invalid_arg "Access.prim: a boxed lane has no typed reader"
  in
  match null with
  | None -> { ty; null; lane; get_val; dict = None }
  | Some is_null ->
    {
      ty = Ptype.Option ty;
      null;
      lane;
      get_val = (fun () -> if is_null () then Value.Null else get_val ());
      dict = None;
    }

let shim_fill seek (get : unit -> 'a) : 'a fill =
 fun base out ~sel ~n ->
  for i = 0 to n - 1 do
    let j = sel.(i) in
    seek (base + j);
    out.(j) <- get ()
  done

let boxed ty get_val = { ty; null = None; lane = Boxed; get_val; dict = None }

let slice_fill (a : 'a array) : 'a fill =
 fun base out ~sel ~n ->
  for i = 0 to n - 1 do
    let j = Array.unsafe_get sel i in
    Array.unsafe_set out j a.(base + j)
  done

let of_column col ~cur ty =
  let null, payload =
    match (col : Column.t) with
    | Column.Nullmask (mask, inner) -> (Some (fun () -> mask.(!cur)), inner)
    | _ -> (None, col)
  in
  let slice a = { get = (fun () -> a.(!cur)); fill = Some (slice_fill a) } in
  match payload with
  | Column.Ints a -> (
    match Ptype.unwrap_option ty with
    | Ptype.Date -> prim ?null (Date (slice a))
    | _ -> prim ?null (Int (slice a)))
  | Column.Floats a -> prim ?null (Float (slice a))
  | Column.Bools a -> prim ?null (Bool (slice a))
  | Column.Strings a -> prim ?null (Str (slice a))
  | Column.Dicts (codes, dict) ->
    (* decode on read; batch kernels that can compare codes instead pick up
       the pair from the [dict] field, which a nullable column withholds *)
    let fill base out ~sel ~n =
      for i = 0 to n - 1 do
        let j = Array.unsafe_get sel i in
        Array.unsafe_set out j dict.(codes.(base + j))
      done
    in
    let a = prim ?null (Str { get = (fun () -> dict.(codes.(!cur))); fill = Some fill }) in
    if null = None then { a with dict = Some (codes, dict) } else a
  | Column.Nullmask _ -> boxed ty (fun () -> Column.get col !cur)
