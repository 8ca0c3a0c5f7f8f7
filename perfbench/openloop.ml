(** Open-loop request accounting.

    Each request has a due time fixed by the arrival schedule before the
    run starts.  Its latency runs from that due time, not from when the
    generator managed to send it, so a stall in the generator or on the
    connection is charged to every request it delayed; how late the
    generator itself was is reported separately, so an overloaded run
    shows up as lateness rather than passing for a slower closed loop. *)

type outcome =
  | Answered of int  (* HTTP status *)
  | Failed           (* connection error or no answer before the run ended *)

type record = {
  due : float;
  sent : float;  (* nan when never sent *)
  finished : float;  (* nan when never answered *)
  outcome : outcome;
}

(** Latency from the due time, in seconds. *)
let latency r = r.finished -. r.due

(** How late the generator sent the request, in seconds (never negative). *)
let lateness r = if Float.is_nan r.sent then Float.nan else Float.max 0.0 (r.sent -. r.due)

(** A request meets the limit only if it was answered [200] within
    [limit_s] of its due time; refusals and failures never do. *)
let meets ~limit_s r =
  match r.outcome with Answered 200 -> latency r <= limit_s | Answered _ | Failed -> false

(** Share of the requests that met the limit (0 when there were none). *)
let slo_share ~limit_s rs =
  match rs with
  | [] -> 0.0
  | _ ->
      float_of_int (List.length (List.filter (meets ~limit_s) rs))
      /. float_of_int (List.length rs)

(** Due times of [n] requests at a constant [rate] per second starting at
    [t0] plus [phase] (a fraction of one interval). *)
let schedule ~t0 ~rate ~phase n =
  Array.init n (fun i -> t0 +. ((float_of_int i +. phase) /. rate))

(** Service times of the answered requests on one connection: each
    request is in service from when it was sent, or when the previous
    answer arrived if later, to its own answer.  Unlike latency, this
    does not grow with the queue the offered load builds. *)
let service_times rs =
  List.filter (fun r -> r.outcome <> Failed) rs
  |> List.sort (fun a b -> compare a.sent b.sent)
  |> List.fold_left
       (fun (acc, prev) r -> ((r.finished -. Float.max r.sent prev) :: acc, r.finished))
       ([], Float.neg_infinity)
  |> fst |> List.rev

(** Requests per second of busy time on one connection, whatever the
    offered load: answered requests over the sum of their
    {!service_times}; 0 when none was answered. *)
let service_rate rs =
  let ts = service_times rs in
  let busy = List.fold_left ( +. ) 0.0 ts in
  if busy > 0.0 then float_of_int (List.length ts) /. busy else 0.0
