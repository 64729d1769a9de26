open Proteus_model
open Proteus_storage

type 'a fill = int -> 'a array -> sel:int array -> n:int -> unit

type t = {
  ty : Ptype.t;
  nullable : bool;
  get_int : (unit -> int) option;
  get_float : (unit -> float) option;
  get_bool : (unit -> bool) option;
  get_str : (unit -> string) option;
  is_null : (unit -> bool) option;
  get_val : unit -> Value.t;
  fill_int : int fill option;
  fill_float : float fill option;
  fill_bool : bool fill option;
  fill_str : string fill option;
  (* dictionary metadata for promoted string columns: [get_str]/[fill_str]
     still produce decoded strings; kernels that can work on codes read the
     (codes, dict) pair directly *)
  dict : (int array * string array) option;
}

let wrap_ty null ty = match null with None -> ty | Some _ -> Ptype.Option ty

let of_int ?null ?fill get =
  {
    ty = wrap_ty null Ptype.Int;
    nullable = null <> None;
    get_int = Some get;
    get_float = Some (fun () -> float_of_int (get ()));
    get_bool = None;
    get_str = None;
    is_null = null;
    get_val =
      (match null with
      | None -> fun () -> Value.Int (get ())
      | Some isnull -> fun () -> if isnull () then Value.Null else Value.Int (get ()));
    fill_int = fill;
    fill_float = None;
    fill_bool = None;
    fill_str = None;
    dict = None;
  }

let of_date ?null ?fill get =
  {
    (of_int ?null ?fill get) with
    ty = wrap_ty null Ptype.Date;
    get_val =
      (match null with
      | None -> fun () -> Value.Date (get ())
      | Some isnull -> fun () -> if isnull () then Value.Null else Value.Date (get ()));
  }

let of_float ?null ?fill get =
  {
    ty = wrap_ty null Ptype.Float;
    nullable = null <> None;
    get_int = None;
    get_float = Some get;
    get_bool = None;
    get_str = None;
    is_null = null;
    get_val =
      (match null with
      | None -> fun () -> Value.Float (get ())
      | Some isnull -> fun () -> if isnull () then Value.Null else Value.Float (get ()));
    fill_int = None;
    fill_float = fill;
    fill_bool = None;
    fill_str = None;
    dict = None;
  }

let of_bool ?null ?fill get =
  {
    ty = wrap_ty null Ptype.Bool;
    nullable = null <> None;
    get_int = None;
    get_float = None;
    get_bool = Some get;
    get_str = None;
    is_null = null;
    get_val =
      (match null with
      | None -> fun () -> Value.Bool (get ())
      | Some isnull -> fun () -> if isnull () then Value.Null else Value.Bool (get ()));
    fill_int = None;
    fill_float = None;
    fill_bool = fill;
    fill_str = None;
    dict = None;
  }

let of_str ?null ?fill get =
  {
    ty = wrap_ty null Ptype.String;
    nullable = null <> None;
    get_int = None;
    get_float = None;
    get_bool = None;
    get_str = Some get;
    is_null = null;
    get_val =
      (match null with
      | None -> fun () -> Value.String (get ())
      | Some isnull -> fun () -> if isnull () then Value.Null else Value.String (get ()));
    fill_int = None;
    fill_float = None;
    fill_bool = None;
    fill_str = fill;
    dict = None;
  }

let shim_fill seek (get : unit -> 'a) : 'a fill =
 fun base out ~sel ~n ->
  for i = 0 to n - 1 do
    let j = sel.(i) in
    seek (base + j);
    out.(j) <- get ()
  done

let boxed ty get_val =
  {
    ty;
    nullable = (match ty with Ptype.Option _ -> true | _ -> false);
    get_int = None;
    get_float = None;
    get_bool = None;
    get_str = None;
    is_null = None;
    get_val;
    fill_int = None;
    fill_float = None;
    fill_bool = None;
    fill_str = None;
    dict = None;
  }

let slice_fill (a : 'a array) : 'a fill =
 fun base out ~sel ~n ->
  for i = 0 to n - 1 do
    let j = Array.unsafe_get sel i in
    Array.unsafe_set out j a.(base + j)
  done

let of_column col ~cur ty =
  match (col : Column.t) with
  | Column.Ints a -> (
    match Ptype.unwrap_option ty with
    | Ptype.Date -> of_date ~fill:(slice_fill a) (fun () -> a.(!cur))
    | _ -> of_int ~fill:(slice_fill a) (fun () -> a.(!cur)))
  | Column.Floats a -> of_float ~fill:(slice_fill a) (fun () -> a.(!cur))
  | Column.Bools a -> of_bool ~fill:(slice_fill a) (fun () -> a.(!cur))
  | Column.Strings a -> of_str ~fill:(slice_fill a) (fun () -> a.(!cur))
  | Column.Dicts (codes, dict) ->
    (* decode on read; batch kernels that can compare codes instead pick up
       the pair from the [dict] field *)
    let fill base out ~sel ~n =
      for i = 0 to n - 1 do
        let j = Array.unsafe_get sel i in
        Array.unsafe_set out j dict.(codes.(base + j))
      done
    in
    { (of_str ~fill (fun () -> dict.(codes.(!cur)))) with dict = Some (codes, dict) }
  | Column.Nullmask (mask, inner) -> (
    let null = Some (fun () -> mask.(!cur)) in
    match inner with
    | Column.Ints a -> (
      match Ptype.unwrap_option ty with
      | Ptype.Date -> of_date ?null (fun () -> a.(!cur))
      | _ -> of_int ?null (fun () -> a.(!cur)))
    | Column.Floats a -> of_float ?null (fun () -> a.(!cur))
    | Column.Bools a -> of_bool ?null (fun () -> a.(!cur))
    | Column.Strings a -> of_str ?null (fun () -> a.(!cur))
    | Column.Dicts (codes, dict) -> of_str ?null (fun () -> dict.(codes.(!cur)))
    | Column.Nullmask _ -> boxed ty (fun () -> Column.get col !cur))
