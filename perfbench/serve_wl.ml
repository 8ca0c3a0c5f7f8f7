(** The [serve-mixed] workload: an in-process [liger serve] with an
    untrained seed-scale model, under open-loop load on two persistent,
    pipelined loopback connections.  One connection carries the hit
    stream (methods cached in set-up), the other the miss stream
    (never-seen methods from a stratified Javagen draw, {!Draw}), so hit latency measures
    interference inside the server rather than queueing behind a miss on
    the same connection.

    The load generator is one event loop on its own domain: it sends each
    request when due, whether or not earlier answers have arrived, and
    every latency is taken from the due time ({!Openloop}).

    The untraced run serves through {!Engine.handle}.  The traced run
    serves through the same steps called one by one — {!Engine.prepare},
    the engine's {!Lru}, {!Engine.encode}, a {!Coalescer} whose [run] is
    the engine's batched forward — timing each, keyed by a request id
    the generator sends in a header. *)

module Rng = Liger_tensor.Rng
module Pipeline = Liger_dataset.Pipeline
module Common = Liger_core.Common
module Liger_model = Liger_core.Liger_model
module Engine = Liger_serve.Engine
module Server = Liger_serve.Server
module Http = Liger_serve.Http
module Client = Liger_serve.Client
module Coalescer = Liger_serve.Coalescer
module Lru = Liger_serve.Lru

(* The hit stream is the load [bench serve] gates on: 50 requests per
   second (its QPS floor) over 8 methods (as many as its fixture holds),
   and the same 250 ms latency limit as that gate's p99 ceiling. *)
let hit_rate = 50.0
let n_hit_methods = 8
let limit_s = 0.25 (* latency limit behind slo_share *)

(* The miss stream takes one pass over every variant of every Javagen
   template (79) in 20 s, 3.95 misses a second, so every run meets the
   same costly variants ({!Draw.variant_slots}); a seed decides only the
   order, names and mutations.  That is about 30% of the miss capacity
   measured on a calm 2-vCPU host with the hit stream running: 13.6
   misses per second of busy time, the median of serve.miss_busy_per_s
   over seeds 11-15. *)
let miss_rate = float_of_int Draw.n_variants /. 20.0
let drain_s = 20.0 (* how long answers may trail the last due time *)

(* ---------------- inputs ---------------- *)

type fixture = {
  engine : Engine.t;
  model : Liger_model.t;
  server : Server.t;
  hits : string array;
  misses : string array;
}

let post ~port body = Client.request ~meth:"POST" ~body ~port "/embed"

let start ~seed ~seconds ~handler_of =
  let enc_config = Engine.default_config.Engine.enc_config in
  (* the server is the same for every seed; only the traffic is drawn *)
  let corpus = Pipeline.build_naming ~enc_config (Rng.create 777) ~name:"serve-vocab" ~n:24 in
  let vocab = corpus.Pipeline.vocab in
  let model = Liger_model.create vocab Liger_model.Naming in
  let engine = Engine.create ~model ~vocab () in
  let server = Server.start ~handler:(handler_of engine model) () in
  let hits = Draw.servable_sources ~seed:(seed + 31337) n_hit_methods in
  let n_misses = int_of_float (miss_rate *. seconds) in
  let misses =
    Draw.servable_sources ~slots:Draw.variant_slots ~avoid:hits ~seed:(seed + 7331) n_misses
  in
  let port = Server.port server in
  Array.iter
    (fun src ->
      let r = post ~port src in
      if r.Client.status <> 200 then
        failwith (Printf.sprintf "serve set-up: warming the cache answered %d" r.Client.status))
    hits;
  { engine; model; server; hits; misses }

let stop fx =
  Server.stop fx.server;
  Engine.stop fx.engine

(* ---------------- the open-loop generator ---------------- *)

type request = { rid : int; stream : [ `Hit | `Miss ]; src : string; due : float }

type answer = { req : request; sent : float; finished : float; status : int; body : string }

let request_bytes r =
  Printf.sprintf
    "POST /embed HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\n\
     X-Request-Id: %d\r\nContent-Length: %d\r\n\r\n%s"
    r.rid (String.length r.src) r.src

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* complete responses at the front of [buf]: (status, body) each *)
let rec take_responses buf acc =
  let s = Buffer.contents buf in
  match Http.find_head_end s (String.length s) with
  | None -> List.rev acc
  | Some i ->
      let status, headers = Client.parse_head (String.sub s 0 i) in
      let len =
        Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "content-length" headers)
      in
      if String.length s < i + 4 + len then List.rev acc
      else begin
        let body = String.sub s (i + 4) len in
        let rest = String.sub s (i + 4 + len) (String.length s - i - 4 - len) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        take_responses buf ((status, body) :: acc)
      end

type conn = {
  fd : Unix.file_descr;
  todo : request Queue.t;  (* not yet sent, in due order *)
  inflight : (request * float) Queue.t;  (* sent, awaiting an answer *)
  rbuf : Buffer.t;
  mutable closed : bool;
}

(* Send every request when due and collect answers until all are in or
   [deadline] passes; unanswered requests come back with [status = 0]. *)
let drive conns ~deadline =
  let answers = ref [] in
  let chunk = Bytes.create 65536 in
  let pending c = not (Queue.is_empty c.todo && Queue.is_empty c.inflight) in
  let lost req sent = answers := { req; sent; finished = Float.nan; status = 0; body = "" } :: !answers in
  let fail c =
    c.closed <- true;
    Queue.iter (fun (req, sent) -> lost req sent) c.inflight;
    Queue.clear c.inflight;
    Queue.iter (fun req -> lost req Float.nan) c.todo;
    Queue.clear c.todo
  in
  let due c = if c.closed || Queue.is_empty c.todo then Float.infinity else (Queue.peek c.todo).due in
  let rec loop () =
    let live = List.filter (fun c -> (not c.closed) && pending c) conns in
    let now = Unix.gettimeofday () in
    if live <> [] && now < deadline then begin
      List.iter
        (fun c ->
          while due c <= Unix.gettimeofday () do
            let r = Queue.pop c.todo in
            let sent = Unix.gettimeofday () in
            Queue.push (r, sent) c.inflight;
            try write_all c.fd (request_bytes r) with Unix.Unix_error _ -> fail c
          done)
        live;
      let next_due = List.fold_left (fun acc c -> Float.min acc (due c)) deadline live in
      let timeout = Float.max 0.0 (Float.min 0.05 (next_due -. Unix.gettimeofday ())) in
      let waiting =
        List.filter_map
          (fun c -> if c.closed || Queue.is_empty c.inflight then None else Some c.fd)
          live
      in
      let readable, _, _ =
        try Unix.select waiting [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun c ->
          if List.mem c.fd readable then
            match Unix.read c.fd chunk 0 (Bytes.length chunk) with
            | 0 -> fail c
            | n ->
                Buffer.add_subbytes c.rbuf chunk 0 n;
                let finished = Unix.gettimeofday () in
                List.iter
                  (fun (status, body) ->
                    match Queue.take_opt c.inflight with
                    | Some (req, sent) ->
                        answers := { req; sent; finished; status; body } :: !answers
                    | None -> ())
                  (take_responses c.rbuf [])
            | exception Unix.Unix_error _ -> fail c)
        live;
      loop ()
    end
  in
  loop ();
  List.iter fail (List.filter pending conns);
  List.sort (fun a b -> compare a.req.rid b.req.rid) !answers

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* the two streams' requests, due from [t0] for [seconds] *)
let plan ~seed fx ~t0 ~seconds =
  let rng = Rng.create (seed + 4711) in
  let n_hit = int_of_float (hit_rate *. seconds) in
  let hit_due = Openloop.schedule ~t0 ~rate:hit_rate ~phase:(Rng.float rng 1.0) n_hit in
  let n_misses = Array.length fx.misses in
  let miss_due = Openloop.schedule ~t0 ~rate:miss_rate ~phase:(Rng.float rng 1.0) n_misses in
  let hits =
    List.init n_hit (fun i ->
        let src = fx.hits.(Rng.int rng (Array.length fx.hits)) in
        { rid = (2 * i) + 1; stream = `Hit; src; due = hit_due.(i) })
  in
  let misses =
    List.init n_misses (fun i ->
        { rid = (2 * i) + 2; stream = `Miss; src = fx.misses.(i); due = miss_due.(i) })
  in
  (hits, misses)

let load ~seed fx ~seconds =
  let port = Server.port fx.server in
  let t0 = Unix.gettimeofday () +. 0.05 in
  let hits, misses = plan ~seed fx ~t0 ~seconds in
  let conn reqs =
    let todo = Queue.of_seq (List.to_seq reqs) in
    { fd = connect port; todo; inflight = Queue.create (); rbuf = Buffer.create 4096; closed = false }
  in
  let conns = [ conn hits; conn misses ] in
  let deadline = t0 +. seconds +. drain_s in
  let answers = Domain.join (Domain.spawn (fun () -> drive conns ~deadline)) in
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  answers

(* ---------------- figures and checks ---------------- *)

let record_of (a : answer) =
  {
    Openloop.due = a.req.due;
    sent = a.sent;
    finished = a.finished;
    outcome = (if a.status = 0 then Openloop.Failed else Openloop.Answered a.status);
  }

(* index just past the first occurrence of [key] in [s] *)
let after key s =
  let n = String.length key in
  let rec find i =
    if i + n > String.length s then None
    else if String.sub s i n = key then Some (i + n)
    else find (i + 1)
  in
  find 0

(* the vector's text in an /embed body, which ends with it *)
let vector_of body =
  Option.map (fun i -> String.sub body i (String.length body - i - 1)) (after "\"vector\":" body)

(* the vector a one-lane forward gives for [ex], as the server serializes it *)
let one_lane fx ex = Engine.vector_json (Liger_model.embed_programs fx.model [| ex |]).(0)

let reference fx src =
  match Engine.prepare src with
  | Error _ -> None
  | Ok (meth, hash) -> (
      match Engine.encode_method ~vocab:fx.engine.Engine.vocab meth hash with
      | Error _ -> None
      | Ok ex -> Some (one_lane fx ex))

let check_answers ?(references = Hashtbl.create 0) ~seed fx answers =
  List.iter
    (fun a ->
      Report.check
        (Printf.sprintf "request %d answered 200 (got %d)" a.req.rid a.status)
        (a.status = 200);
      if a.status = 200 then
        match a.req.stream with
        | `Hit ->
            Report.check
              (Printf.sprintf "hit-stream request %d served from cache" a.req.rid)
              (after "\"cached\":true" a.body <> None)
        | `Miss ->
            Report.check
              (Printf.sprintf "miss-stream request %d served without the cache" a.req.rid)
              (after "\"cached\":false" a.body <> None))
    answers;
  (* every hit method, plus misses: all of them when the traced run
     captured their encodings, else a seeded sample of eight *)
  let ok = List.filter (fun a -> a.status = 200) answers in
  let by_src = Hashtbl.create 64 in
  List.iter (fun a -> Hashtbl.replace by_src a.req.src a) ok;
  let hit_srcs = List.filter (Hashtbl.mem by_src) (Array.to_list fx.hits) in
  let miss_srcs =
    List.filter_map (fun a -> if a.req.stream = `Miss then Some a.req.src else None) ok
  in
  let miss_srcs =
    if Hashtbl.length references > 0 then miss_srcs
    else begin
      let arr = Array.of_list miss_srcs in
      Rng.shuffle (Rng.create (seed + 5)) arr;
      Array.to_list (Array.sub arr 0 (min 8 (Array.length arr)))
    end
  in
  List.iter
    (fun src ->
      let a = Hashtbl.find by_src src in
      let expected =
        match Hashtbl.find_opt references src with Some v -> Some v | None -> reference fx src
      in
      Report.check
        (Printf.sprintf "request %d: /embed vector equals a one-lane forward" a.req.rid)
        (expected <> None && vector_of a.body = expected))
    (hit_srcs @ miss_srcs)

let latencies_ms stream answers =
  List.filter_map
    (fun a ->
      if a.req.stream = stream && a.status = 200 then
        Some (1000.0 *. Openloop.latency (record_of a))
      else None)
    answers

let tail_metric name xs =
  let t = Stats.tail xs in
  Report.metric name "ms" t.Stats.value;
  Report.note (name ^ ".percentile") (Printf.sprintf "p%g" t.Stats.pct);
  Report.note (name ^ ".samples")
    (Printf.sprintf "%d (%d beyond)" t.Stats.samples t.Stats.beyond)

let latency_metrics answers =
  let hit = latencies_ms `Hit answers and miss = latencies_ms `Miss answers in
  Report.metric "serve.hit_p50_ms" "ms" (Stats.median hit);
  tail_metric "serve.hit_tail_ms" hit;
  Report.metric "serve.miss_p50_ms" "ms" (Stats.median miss);
  tail_metric "serve.miss_tail_ms" miss;
  let records = List.map record_of answers in
  Report.metric "serve.slo_share" "share" (Openloop.slo_share ~limit_s records);
  let stream_records stream =
    List.filter_map (fun a -> if a.req.stream = stream then Some (record_of a) else None) answers
  in
  (* Two miss figures.  The typical miss (1 / median service time) is
     cheap: parse, a short trace generation and a forward.  Misses per
     second of busy time also carry the few solver-bound misses, which
     take most of the connection's busy time.  Hits are fast but for the
     stretches they wait behind a miss, which slo_share counts; their
     median service time is set by how long Nagle's algorithm holds an
     answer (see BENCHMARK.md), so it is printed but carries no bound. *)
  let typical_rate stream = 1.0 /. Stats.median (Openloop.service_times (stream_records stream)) in
  Report.metric "serve.miss_service_per_s" "1/s" (typical_rate `Miss);
  Report.metric "serve.miss_busy_per_s" "1/s" (Openloop.service_rate (stream_records `Miss));
  Report.metric "serve.hit_service_per_s" "1/s" (typical_rate `Hit);
  Report.note "serve.limit_ms" (Printf.sprintf "%.0f" (1000.0 *. limit_s));
  Report.note "serve.requests" (string_of_int (List.length records))

let lag_metric answers =
  let lag =
    List.filter_map
      (fun a ->
        let l = Openloop.lateness (record_of a) in
        if Float.is_nan l then None else Some (1000.0 *. l))
      answers
  in
  let t = Stats.tail lag in
  Report.metric "serve.gen_lag_ms" "ms" t.Stats.value;
  Report.note "serve.gen_lag_ms.percentile" (Printf.sprintf "p%g of %d" t.Stats.pct t.Stats.samples)

let setup ~seed ~seconds ~handler_of =
  (* each set-up but the last is torn down again *)
  let prev = ref None in
  Report.setup (fun () ->
      Option.iter stop !prev;
      let fx = start ~seed ~seconds ~handler_of in
      prev := Some fx;
      fx)

let end_to_end ~seed ~seconds =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fx = setup ~seed ~seconds ~handler_of:(fun engine _ -> Engine.handle engine) in
  let answers = load ~seed fx ~seconds in
  stop fx;
  latency_metrics answers;
  lag_metric answers;
  check_answers ~seed fx answers

(* ---------------- the traced handler ---------------- *)

let header_rid req =
  Option.value ~default:0 (Option.bind (Http.header req "x-request-id") int_of_string_opt)

(* references captured from the traced handler's own encodings *)
let captured : (string, Common.enc_example) Hashtbl.t = Hashtbl.create 64
let captured_lock = Mutex.create ()

let traced_handler engine model =
  let co =
    Coalescer.create ~max_batch:engine.Engine.config.Engine.max_batch
      ~window_s:engine.Engine.config.Engine.batch_window_s
      ~run:(fun lanes ->
        let start = Unix.gettimeofday () in
        Tracer.count "serve.batches" 1.0;
        Tracer.count "serve.lanes" (float_of_int (Array.length lanes));
        Array.iter
          (fun (_, rid, parent, submitted) ->
            Tracer.record ~parent ~rid "serve.queue_wait" ~start:submitted ~stop:start)
          lanes;
        let out = Liger_model.embed_programs model (Array.map (fun (ex, _, _, _) -> ex) lanes) in
        Tracer.record "serve.forward" ~start ~stop:(Unix.gettimeofday ());
        out)
      ()
  in
  let err status msg = (status, "application/json", Http.error_body msg) in
  fun ~deadline (req : Http.request) ->
    let rid = header_rid req in
    Tracer.with_ ~rid "serve.handler" @@ fun () ->
    match Tracer.with_ "serve.prepare" (fun () -> Engine.prepare req.Http.body) with
    | Error (status, msg) -> err status msg
    | Ok (meth, hash) -> (
        let respond ~cached v =
          let body = Tracer.with_ "serve.serialize" (fun () -> Engine.embed_body hash ~cached v) in
          (200, "application/json", body)
        in
        match Tracer.with_ "serve.cache_lookup" (fun () -> Lru.find engine.Engine.cache hash) with
        | Some v ->
            Tracer.count "serve.cache_hits" 1.0;
            respond ~cached:true v
        | None -> (
            Tracer.count "serve.cache_misses" 1.0;
            match Tracer.with_ "serve.encode" (fun () -> Engine.encode engine meth hash) with
            | Error (status, msg) -> err status msg
            | Ok ex -> (
                Mutex.lock captured_lock;
                Hashtbl.replace captured req.Http.body ex;
                Mutex.unlock captured_lock;
                let lane = (ex, rid, Tracer.current (), Unix.gettimeofday ()) in
                match Coalescer.submit co ~deadline lane with
                | Ok v ->
                    Lru.put engine.Engine.cache hash v;
                    respond ~cached:false v
                | Error `Expired ->
                    Tracer.count "serve.expired" 1.0;
                    err 408 "deadline expired before a batch lane was allocated")))

let traced ~seed ~seconds =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* untraced first, for the overhead; then the same plan traced *)
  let plain_fx = start ~seed ~seconds ~handler_of:(fun engine _ -> Engine.handle engine) in
  let plain = load ~seed plain_fx ~seconds in
  stop plain_fx;
  latency_metrics plain;
  check_answers ~seed plain_fx plain;
  let fx = start ~seed ~seconds ~handler_of:traced_handler in
  Tracer.on := true;
  let answers = load ~seed fx ~seconds in
  Tracer.on := false;
  stop fx;
  let references = Hashtbl.create 64 in
  Hashtbl.iter (fun src ex -> Hashtbl.replace references src (one_lane fx ex)) captured;
  check_answers ~references ~seed fx answers;
  let spans = Tracer.spans () in
  let agg = Tracer.aggregate spans in
  let self = Tracer.self_s agg in
  List.iter
    (fun stage -> Report.metric ("serve." ^ stage ^ "_s") "s" (self ("serve." ^ stage)))
    [ "prepare"; "cache_lookup"; "encode"; "queue_wait"; "forward"; "serialize" ];
  let hits = Tracer.counter "serve.cache_hits" and misses = Tracer.counter "serve.cache_misses" in
  Report.metric "serve.cache_hit_ratio" "share" (hits /. Float.max 1.0 (hits +. misses));
  Report.metric "serve.lanes_per_batch" "count"
    (Tracer.counter "serve.lanes" /. Float.max 1.0 (Tracer.counter "serve.batches"));
  (* transport: what the client waited beyond the handler's own time,
     counted from when the request reached the head of its connection *)
  let handler = Hashtbl.create 256 in
  List.iter
    (fun (s : Tracer.span) ->
      if s.Tracer.name = "serve.handler" then
        Hashtbl.replace handler s.Tracer.rid (s.Tracer.stop -. s.Tracer.start))
    spans;
  let transport stream =
    List.filter (fun a -> a.req.stream = stream && a.status <> 0) answers
    |> List.fold_left
         (fun (acc, prev) a ->
           match Hashtbl.find_opt handler a.req.rid with
           | Some h ->
               (acc +. Float.max 0.0 (a.finished -. Float.max a.sent prev -. h), a.finished)
           | None -> (acc, a.finished))
         (0.0, Float.neg_infinity)
    |> fst
  in
  Report.metric "serve.transport_s" "s" (transport `Hit +. transport `Miss);
  lag_metric answers;
  Report.metric "serve.expired" "count" (Tracer.counter "serve.expired");
  Report.metric "serve.rejected" "count"
    (float_of_int (List.length (List.filter (fun a -> a.status = 429) answers)));
  (* the connections' busy time: unlike summed latency, it does not
     count the queues a stall builds, which differ from pass to pass *)
  let busy answers =
    List.fold_left
      (fun acc stream ->
        List.filter_map (fun a -> if a.req.stream = stream then Some (record_of a) else None) answers
        |> Openloop.service_times |> List.fold_left ( +. ) acc)
      0.0 [ `Hit; `Miss ]
  in
  Report.metric "trace.overhead_s" "s" (busy answers -. busy plain);
  Report.metric "trace.overhead_share" "share" ((busy answers -. busy plain) /. busy plain)
