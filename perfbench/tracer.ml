(** In-memory spans recorded by the benchmark around its calls into the
    program's layers.

    A span has a name, a start and an end, the span that caused it, and a
    request id (0 outside serving).  Spans nest per thread: a span opened
    while another is open on the same thread of the same domain becomes
    its child.  Nothing is written until {!write} runs at the end of the
    benchmark, and with tracing off {!with_} only tests a flag. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (* 0: a root span *)
  rid : int;     (* request id; 0: none *)
}

let on = ref false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

(* open spans per (domain, thread): (span id, request id), innermost first *)
let stacks : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let stack () =
  let key = ((Domain.self () :> int) * 1_000_000) + Thread.id (Thread.self ()) in
  locked (fun () ->
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.add stacks key s;
          s)

let add span = locked (fun () -> recorded := span :: !recorded)

(** Record a span whose interval was measured by the caller. *)
let record ?(parent = 0) ?(rid = 0) name ~start ~stop =
  if !on then add { id = Atomic.fetch_and_add next_id 1; name; start; stop; parent; rid }

(** Run [f] inside a span named [name].  [rid] defaults to the enclosing
    span's request id.  Returns [f]'s result; an exception still closes
    the span. *)
let with_ ?rid name f =
  if not !on then f ()
  else begin
    let st = stack () in
    let parent, outer_rid = match !st with (p, r) :: _ -> (p, r) | [] -> (0, 0) in
    let rid = Option.value rid ~default:outer_rid in
    let id = Atomic.fetch_and_add next_id 1 in
    st := (id, rid) :: !st;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        st := List.tl !st;
        add { id; name; start; stop; parent; rid })
  end

(** Id of the innermost open span on this thread (0 when none). *)
let current () = if !on then match !(stack ()) with (id, _) :: _ -> id | [] -> 0 else 0

(** Add [x] to the counter [name]. *)
let count name x =
  if !on then
    locked (fun () ->
        Hashtbl.replace counters name (x +. Option.value ~default:0.0 (Hashtbl.find_opt counters name)))

let counter name = locked (fun () -> Option.value ~default:0.0 (Hashtbl.find_opt counters name))
let spans () = locked (fun () -> List.rev !recorded)

let reset () =
  locked (fun () ->
      recorded := [];
      Hashtbl.reset counters;
      Hashtbl.reset stacks)

(* total length of the union of [intervals], each clipped to [lo, hi] *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(** A span's self time: its duration minus the part of its interval that
    its children cover.  Children that overlap each other (work a span
    fanned out) are counted once. *)
let self_time ~children s =
  let kids = List.map (fun c -> (c.start, c.stop)) children in
  s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids

type agg = { calls : int; total_s : float; self_s : float }

(** Per-name call count, total time and self time over [spans]. *)
let aggregate spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = self_time ~children:(Hashtbl.find_all children s.id) s in
      let a =
        Option.value ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = a.calls + 1; total_s = a.total_s +. (s.stop -. s.start); self_s = a.self_s +. self })
    spans;
  by_name

(** Self time and call count of [name] in an {!aggregate}, 0 when absent. *)
let self_s agg name = match Hashtbl.find_opt agg name with Some a -> a.self_s | None -> 0.0

let calls agg name = match Hashtbl.find_opt agg name with Some a -> a.calls | None -> 0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Write every span as one JSON object per line. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%s,\"start\":%.6f,\"end\":%.6f,\"parent\":%d,\"rid\":%d}\n"
        s.id (json_string s.name) s.start s.stop s.parent s.rid)
    (spans ())
