(* Tests of the benchmark's own arithmetic: tail selection, open-loop
   latency accounting, and self time from nested spans. *)

let close a b = Float.abs (a -. b) < 1e-9

let check name ok =
  if not ok then begin
    Printf.eprintf "FAIL %s\n" name;
    exit 1
  end
  else Printf.printf "ok %s\n" name

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  (* 1000 samples: p99 leaves exactly ten beyond it, p99.5 only five *)
  let t = Stats.tail (range 1000) in
  check "tail of 1000 samples is p99" (t.Stats.pct = 99.0 && t.Stats.beyond = 10 && t.Stats.value = 990.0);
  (* 100 samples: p90 leaves ten beyond, p95 only five *)
  let t = Stats.tail (range 100) in
  check "tail of 100 samples is p90" (t.Stats.pct = 90.0 && t.Stats.beyond = 10 && t.Stats.value = 90.0);
  (* 60 samples: p80 is rank 48, twelve beyond; p90 would leave six *)
  let t = Stats.tail (List.rev (range 60)) in
  check "tail ignores input order" (t.Stats.pct = 80.0 && t.Stats.beyond = 12 && t.Stats.value = 48.0);
  (* fewer than twenty samples: not even the median has ten beyond *)
  let t = Stats.tail (range 12) in
  check "thin sample reports its maximum"
    (t.Stats.pct = 100.0 && t.Stats.beyond = 0 && t.Stats.value = 12.0);
  check "every ladder tail has at least ten beyond"
    (List.for_all
       (fun n ->
         let t = Stats.tail (range n) in
         t.Stats.pct = 100.0 || t.Stats.beyond >= 10)
       (List.init 300 (fun i -> i + 1)));
  check "median is a measured sample" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.0)

let test_lateness () =
  (* three requests due 10 ms apart; the generator stalls and sends all
     three at 25 ms; each is answered 5 ms after it was sent *)
  let r due = { Openloop.due; sent = 0.025; finished = 0.030; outcome = Openloop.Answered 200 } in
  let rs = [ r 0.000; r 0.010; r 0.020 ] in
  check "latency runs from the due time"
    (List.for_all2 (fun r l -> close (Openloop.latency r) l) rs [ 0.030; 0.020; 0.010 ]);
  check "lateness is send minus due"
    (List.for_all2 (fun r l -> close (Openloop.lateness r) l) rs [ 0.025; 0.015; 0.005 ]);
  check "the stall makes the first request miss a 25 ms limit"
    (close (Openloop.slo_share ~limit_s:0.025 rs) (2.0 /. 3.0));
  let refused = { (r 0.020) with Openloop.outcome = Openloop.Answered 429 } in
  let lost = { (r 0.020) with Openloop.finished = Float.nan; outcome = Openloop.Failed } in
  check "refused and failed requests miss any limit"
    (Openloop.slo_share ~limit_s:10.0 [ refused; lost; r 0.020 ] = 1.0 /. 3.0);
  check "an early send is not negative lateness"
    (Openloop.lateness { (r 0.030) with Openloop.sent = 0.029 } = 0.0);
  let d = Openloop.schedule ~t0:100.0 ~rate:4.0 ~phase:0.5 3 in
  check "schedule spaces due times by 1/rate" (close d.(0) 100.125 && close d.(2) 100.625)

let test_service_rate () =
  (* pipelined on one connection: sent at 0, 1 and 10 s, answered at 2,
     4 and 11 s.  The second waits behind the first, so it is in service
     only from 2 to 4; the connection is idle from 4 to 10 *)
  let r sent finished = { Openloop.due = sent; sent; finished; outcome = Openloop.Answered 200 } in
  let rs = [ r 0.0 2.0; r 1.0 4.0; r 10.0 11.0 ] in
  check "service time counts from the send or the previous answer, whichever is later"
    (List.for_all2 close (Openloop.service_times rs) [ 2.0; 2.0; 1.0 ]);
  check "service rate is answers over busy time" (close (Openloop.service_rate rs) (3.0 /. 5.0));
  let lost = { (r 12.0 Float.nan) with Openloop.outcome = Openloop.Failed } in
  check "an unanswered request adds no service time"
    (close (Openloop.service_rate [ r 0.0 2.0; lost ]) 0.5);
  check "no answers give a rate of 0" (Openloop.service_rate [ lost ] = 0.0)

let test_self_time () =
  let span id ?(parent = 0) name start stop = { Tracer.id; name; start; stop; parent; rid = 0 } in
  (* root [0, 10] with children [1, 3] and [2, 5] (overlapping: fanned
     out) and [7, 8]; grandchild [1.5, 2.5] inside the first child *)
  let spans =
    [ span 1 "root" 0.0 10.0; span 2 ~parent:1 "a" 1.0 3.0; span 3 ~parent:1 "b" 2.0 5.0;
      span 4 ~parent:1 "a" 7.0 8.0; span 5 ~parent:2 "c" 1.5 2.5 ]
  in
  let agg = Tracer.aggregate spans in
  let self n = (Hashtbl.find agg n).Tracer.self_s in
  check "root self time excludes the union of its children" (close (self "root") 5.0);
  check "self time sums over calls of one name"
    (close (self "a") 2.0 && (Hashtbl.find agg "a").Tracer.calls = 2);
  check "a leaf's self time is its duration" (close (self "c") 1.0 && close (self "b") 3.0);
  check "a child sticking out of its parent is clipped"
    (close (Tracer.self_time ~children:[ span 9 ~parent:8 "x" 4.0 12.0 ] (span 8 "p" 0.0 10.0)) 4.0);
  (* nesting recorded by the tracer itself *)
  Tracer.reset ();
  Tracer.on := true;
  Tracer.with_ ~rid:7 "outer" (fun () -> Tracer.with_ "inner" ignore);
  Tracer.on := false;
  match Tracer.spans () with
  | [ inner; outer ] ->
      check "with_ links a nested span to its parent"
        (inner.Tracer.parent = outer.Tracer.id && outer.Tracer.parent = 0);
      check "a nested span inherits the request id" (inner.Tracer.rid = 7)
  | _ -> check "with_ records two spans" false

let () =
  test_tail ();
  test_lateness ();
  test_service_rate ();
  test_self_time ()
