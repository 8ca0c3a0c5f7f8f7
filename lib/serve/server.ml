(** The concurrent HTTP server: listener + one thread per connection,
    keep-alive and pipelining, bounded inflight admission ({!Gate}),
    per-request deadlines, and per-endpoint telemetry.

    [/healthz] and [/metrics] are owned here and bypass the gate — load
    shedding must never blind the probes watching the shedding.  The
    metrics endpoint is PR 8's OpenMetrics exposition verbatim:
    [Openmetrics.render (Metrics.snapshot ())].

    Everything else runs the injected [handler] behind the gate: over
    the inflight cap a request is answered [429] with [Retry-After]
    immediately (never queued), and its deadline — [X-Deadline-Ms]
    header, else the configured default — is passed down so expired
    work is dropped before it occupies a batch lane ([408]). *)

module Metrics = Liger_obs.Metrics
module Openmetrics = Liger_obs.Openmetrics

type config = {
  port : int;  (* 0 = ephemeral: the kernel picks a free port *)
  max_inflight : int;
  default_deadline_s : float;
  limits : Http.limits;
}

let default_config =
  { port = 0; max_inflight = 8; default_deadline_s = 30.0; limits = Http.default_limits }

type t = {
  config : config;
  handler : deadline:float -> Http.request -> int * string * string;
  listener : Unix.file_descr;
  port : int;
  gate : Gate.t;
  mutable stopped : bool;
  mutable accept_thread : Thread.t option;
  lock : Mutex.t;
}

let port t = t.port

let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let endpoint_label path =
  match path with
  | "/embed" | "/search" | "/suggest" | "/healthz" | "/metrics" -> path
  | _ -> "other"

let observe_request ~endpoint ~status ~elapsed =
  Metrics.incr "serve.requests"
    ~labels:[ ("endpoint", endpoint); ("status", string_of_int status) ];
  Metrics.observe "serve.latency_seconds" ~labels:[ ("endpoint", endpoint) ] elapsed

(* run one parsed request through the built-ins / gate / handler; returns
   the full response bytes *)
let respond t (req : Http.request) =
  let endpoint = endpoint_label req.Http.path in
  let t0 = Unix.gettimeofday () in
  let status, response =
    match (req.Http.meth, req.Http.path) with
    | "GET", "/healthz" -> (200, Http.response ~content_type:"text/plain" ~status:200 "ok\n")
    | "GET", "/metrics" ->
        let body = Openmetrics.render (Metrics.snapshot ()) in
        ( 200,
          Http.response
            ~content_type:"application/openmetrics-text; version=1.0.0; charset=utf-8"
            ~status:200 body )
    | _, ("/healthz" | "/metrics") ->
        (405, Http.response ~status:405 (Http.error_body "use GET"))
    | _ ->
        if not (Gate.try_acquire t.gate) then begin
          Metrics.incr "serve.rejected_busy";
          ( 429,
            Http.response ~status:429
              ~extra_headers:[ ("Retry-After", "1") ]
              (Http.error_body "server at inflight capacity; retry") )
        end
        else
          Fun.protect
            ~finally:(fun () ->
              Gate.release t.gate;
              Metrics.gauge "serve.inflight" (float_of_int (Gate.inflight t.gate)))
            (fun () ->
              Metrics.gauge "serve.inflight" (float_of_int (Gate.inflight t.gate));
              let deadline =
                let budget_s =
                  match
                    Option.bind (Http.header req "x-deadline-ms") float_of_string_opt
                  with
                  | Some ms when ms >= 0.0 -> ms /. 1000.0
                  | _ -> t.config.default_deadline_s
                in
                t0 +. budget_s
              in
              match t.handler ~deadline req with
              | status, content_type, body ->
                  (status, Http.response ~content_type ~status body)
              | exception e ->
                  Logs.err (fun m ->
                      m "serve: handler raised on %s %s: %s" req.Http.meth req.Http.path
                        (Printexc.to_string e));
                  (500, Http.response ~status:500 (Http.error_body "internal error")))
  in
  observe_request ~endpoint ~status ~elapsed:(Unix.gettimeofday () -. t0);
  response

let wants_close (req : Http.request) =
  match Http.header req "connection" with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

let connection_loop t fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Http.parse ~limits:t.config.limits (Buffer.contents buf) with
    | Http.Complete (req, consumed) ->
        let rest = Buffer.sub buf consumed (Buffer.length buf - consumed) in
        Buffer.clear buf;
        Buffer.add_string buf rest;
        write_all fd (respond t req);
        if wants_close req then () else loop ()
    | Http.Reject (status, msg) ->
        Metrics.incr "serve.requests"
          ~labels:[ ("endpoint", "malformed"); ("status", string_of_int status) ];
        write_all fd (Http.response ~status (Http.error_body msg))
    | Http.Incomplete ->
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let rec go () =
    match Unix.accept t.listener with
    | client, _ ->
        (* each answer is one write: send it now rather than let Nagle's
           algorithm hold it for the ACK of the answer before, which a
           pipelining client delays until its next request *)
        (try Unix.setsockopt client Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        ignore (Thread.create (connection_loop t) client);
        go ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
        if not t.stopped then go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> if not t.stopped then go ()
  in
  go ()

(** Bind, listen and start accepting on 127.0.0.1.  [config.port = 0]
    asks the kernel for a free ephemeral port — collision-safe under
    parallel test runs; read the bound port back with {!port}. *)
let start ?(config = default_config) ~handler () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (try Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port))
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listener 64;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      config;
      handler;
      listener;
      port;
      gate = Gate.create ~max_inflight:config.max_inflight;
      stopped = false;
      accept_thread = None;
      lock = Mutex.create ();
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

(** Stop accepting and join the acceptor.  In-flight connections finish
    on their own threads; new connections are refused. *)
let stop t =
  Mutex.lock t.lock;
  let was_stopped = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  if not was_stopped then begin
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    match t.accept_thread with
    | Some th ->
        t.accept_thread <- None;
        Thread.join th
    | None -> ()
  end

let inflight t = Gate.inflight t.gate
