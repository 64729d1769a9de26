(* In-memory spans for the traced run.

   A span is one call into a layer, recorded by the benchmark around the
   public function it calls: a name, start and end, the span that caused it
   (-1 for a request's root), and the request it belongs to. Spans stay in
   memory and are written out once, when the run ends. Several client
   threads may record at once, so the store is behind a mutex. *)

type span = {
  id : int;
  parent : int;
  rid : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = { mu : Mutex.t; mutable next : int; mutable spans : span list }

let create () = { mu = Mutex.create (); next = 0; spans = [] }

let fresh_id t =
  Mutex.protect t.mu (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [span t ~rid ?parent name f] runs [f id] inside a span; [id] is the
   parent to hand to the spans [f] records. *)
let span t ~rid ?(parent = -1) name f =
  let id = fresh_id t in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let s = { id; parent; rid; name; t0; t1 = Unix.gettimeofday () } in
      Mutex.protect t.mu (fun () -> t.spans <- s :: t.spans))
    (fun () -> f id)

let duration s = s.t1 -. s.t0

(* Self time per span name, in seconds: each span's duration minus the part
   its direct children cover. The children of one span are sequential calls
   on one thread, so their summed durations are the covered part. *)
let self_times t =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    t.spans;
  by_name

(* Summed full duration of the spans called [name]. *)
let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. t.spans

let write t ~path ~workload =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %S, \"spans\": [" workload;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"parent\": %d, \"rid\": %d, \"name\": %S, \"start_ns\": %.0f, \
         \"end_ns\": %.0f}"
        (if i = 0 then "" else ",")
        s.id s.parent s.rid s.name (s.t0 *. 1e9) (s.t1 *. 1e9))
    (List.rev t.spans);
  output_string oc "\n]}\n";
  close_out oc
