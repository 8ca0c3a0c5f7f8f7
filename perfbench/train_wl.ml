(** The [train] workload: the four Table 2 points (LiGer, DYPRO, code2vec,
    code2seq) through {!Experiments.compute} at a reduced scale, each
    followed by one LiGer {!Train.fit} at batch size 8 as
    [liger train --batch 8] runs it.
    The corpus, a stratified draw ({!Draw}) through the corpus pipeline,
    is built in set-up, so the solver is not on this path.

    The traced run replays [Train.fit]'s loop from its public parts —
    the model's loss, the tape's backward, the optimizer, the scorer —
    timing each, on both the scalar tape (the Table 2 points) and the
    batched tape (the batch-8 fit). *)

open Liger_tensor
module Pipeline = Liger_dataset.Pipeline
module Experiments = Liger_eval.Experiments
module Train = Liger_eval.Train
module Zoo = Liger_eval.Zoo
module Common = Liger_core.Common
module Liger_model = Liger_core.Liger_model

let batch = 8

let scale =
  {
    Experiments.quick with
    Experiments.label = "bench";
    dim = 16;
    epochs = 2;
  }

let kinds =
  [ Experiments.liger_full; Experiments.Dypro_k; Experiments.Code2vec_k; Experiments.Code2seq_k ]

type fixture = { ctx : Experiments.ctx; corpus : Pipeline.corpus; seed : int }

let setup ~seed =
  Report.setup (fun () ->
      let corpus =
        Corpus_wl.build_plain ~enc_config:scale.Experiments.enc
          ~draw:(Draw.corpus ~seed:(seed + 4242) ~round:0) (Rng.create (seed + 4242))
      in
      let ctx = { (Experiments.create_ctx ~scale ()) with Experiments.med = Lazy.from_val corpus } in
      { ctx; corpus; seed })

let view fx = Experiments.normalize_view fx.ctx Experiments.full_view
let n_train fx = List.length fx.corpus.Pipeline.train
let options = { Train.default_options with Train.epochs = scale.Experiments.epochs; eval_every = 2 }
let batched_options = { options with Train.batch_size = batch }

let liger_config =
  { Liger_model.default_config with Liger_model.dim = scale.Experiments.dim }

(* the batch-8 LiGer wrapper; its epochs are shuffled by [batched_rng] *)
let batched_model fx =
  fst (Zoo.liger ~config:liger_config ~view:(view fx) ~vocab:fx.corpus.Pipeline.vocab Liger_model.Naming)

let batched_rng fx = Rng.create (fx.seed + 99)

let check_losses what losses =
  Report.check (what ^ ": every epoch loss is finite") (List.for_all Float.is_finite losses);
  Report.check (what ^ ": last epoch loss is below the first")
    (match (losses, List.rev losses) with
    | first :: _ :: _, last :: _ -> last < first
    | _ -> false)

(* Each timed training starts from a collected heap, so one training's
   garbage is not charged to the next.  Training keeps one CPU busy, and
   the time the hypervisor takes from it is left out: on a shared 2-vCPU
   host, of ten runs the five with 4.7 to 10.7 s of steal read 35 to 45
   Table 2 examples/s, and the four with less than 2 s read 45 to 53. *)
let timed f =
  Gc.full_major ();
  Report.time_less_steal f

(* one Table 2 point through [Experiments.compute], checked; its time *)
let table2 fx kind =
  let r, dt = timed (fun () -> Experiments.compute fx.ctx ~corpus:`Med ~kind ~view:(view fx)) in
  let f1 = (Option.get r.Experiments.naming).Train.prf.Liger_eval.Metrics.f1 in
  Report.check
    (r.Experiments.model ^ ": test F1 is a number in [0, 1]")
    (Float.is_finite f1 && f1 >= 0.0 && f1 <= 1.0);
  dt

(* one batch-8 LiGer fit, checked; its time and skipped steps *)
let batched_fit fx =
  let h, dt =
    timed (fun () ->
        Train.fit ~options:batched_options (batched_rng fx) (batched_model fx)
          ~train:fx.corpus.Pipeline.train ~valid:fx.corpus.Pipeline.valid)
  in
  check_losses "LiGer batch 8" h.Train.train_losses;
  (dt, h.Train.skipped_steps)

type samples = {
  table2_s : (Experiments.model_kind * float) list;  (* one per Table 2 training *)
  batched : (float * int) list;  (* time and skipped steps, one per batched fit *)
}

(* The trainings run in a fixed round: each Table 2 point followed by a
   batched fit.  The batched fit is short (about 0.4 s against 0.1 to
   2 s for a Table 2 point), so it is sampled four times a round, and
   both figures sample the same stretches of host time.  The run stops
   after the first training that ends past [seconds], once every point
   has been timed. *)
let run fx ~seconds =
  let t0 = Report.now () in
  let order = List.concat_map (fun kind -> [ `Table2 kind; `Batched ]) kinds in
  let rec go todo acc =
    let todo = if todo = [] then order else todo in
    let timed_all = List.for_all (fun k -> List.mem_assoc k acc.table2_s) kinds in
    if timed_all && Report.now () -. t0 >= seconds then acc
    else
      match todo with
      | `Table2 kind :: rest -> go rest { acc with table2_s = (kind, table2 fx kind) :: acc.table2_s }
      | `Batched :: rest -> go rest { acc with batched = batched_fit fx :: acc.batched }
      | [] -> assert false
  in
  go order { table2_s = []; batched = [] }

let epoch_examples fx = float_of_int (scale.Experiments.epochs * n_train fx)

let end_to_end fx ~seconds =
  (* the batched engine grows its buffer arena over its first fits; the
     first timed fit after a one-epoch warm-up still read about 80 ex/s
     against 125 later, so two whole fits run untimed first *)
  for _ = 1 to 2 do
    ignore (batched_fit fx)
  done;
  let s = run fx ~seconds in
  let e = epoch_examples fx in
  (* a round's Table 2 time, from each point's median time *)
  let point_s kind = Stats.median (List.filter_map (fun (k, dt) -> if k = kind then Some dt else None) s.table2_s) in
  let table2_s = List.fold_left (fun acc kind -> acc +. point_s kind) 0.0 kinds in
  Report.metric "train.table2_examples_per_s" "1/s" (4.0 *. e /. table2_s);
  Report.metric "train.batched_examples_per_s" "1/s"
    (Stats.median (List.map (fun (dt, _) -> e /. dt) s.batched));
  let steps = List.length s.batched * options.Train.epochs * ((n_train fx + batch - 1) / batch) in
  let skipped = List.fold_left (fun a (_, k) -> a + k) 0 s.batched in
  Report.metric "train.finite_step_share" "share" (1.0 -. (float_of_int skipped /. float_of_int steps));
  Report.note "train.point_s"
    (String.concat " "
       (List.map (fun kind -> Printf.sprintf "%s:%.2f" (Experiments.kind_name kind) (point_s kind)) kinds));
  Report.note "train.table2_trainings" (string_of_int (List.length s.table2_s));
  Report.note "train.batched_rates"
    (String.concat " " (List.rev_map (fun (dt, _) -> Printf.sprintf "%.1f" (e /. dt)) s.batched));
  Report.note "train.examples" (string_of_int (n_train fx))

(* ---------------- the traced replay of Train.fit ---------------- *)

(* the parts of [Train.fit] the replay times, per model *)
let parts = [ "forward"; "backward"; "optimizer"; "score" ]

let clip_and_step opt (m : Train.model) =
  Tracer.with_ "optimizer" (fun () ->
      let norm = Optimizer.clip_grads m.Train.store ~max_norm:options.Train.clip in
      if Float.is_finite norm then Optimizer.step opt m.Train.store)

(* the Table 2 wrapper [Experiments.compute] builds for [kind], with the
   generator it seeds from the point's key *)
let table2_model fx kind =
  let v = view fx in
  let key = Experiments.key_of ~corpus:`Med ~kind ~view:v in
  let vocab = fx.corpus.Pipeline.vocab and train = fx.corpus.Pipeline.train in
  let dim = scale.Experiments.dim in
  let w =
    match kind with
    | Experiments.Liger _ -> fst (Zoo.liger ~config:liger_config ~view:v ~vocab Liger_model.Naming)
    | Experiments.Dypro_k -> fst (Zoo.dypro ~dim ~view:v ~vocab Liger_model.Naming)
    | Experiments.Code2vec_k -> Zoo.code2vec ~dim ~train Liger_model.Naming
    | Experiments.Code2seq_k -> Zoo.code2seq ~dim ~train Liger_model.Naming
    | Experiments.Liger_vanilla_f3 -> invalid_arg "table2_model"
  in
  (w, Rng.create (Hashtbl.hash key))

let replay_scalar fx kind =
  let m, rng = table2_model fx kind in
  let name = m.Train.name in
  let opt = Optimizer.adam ~lr:options.Train.lr () in
  let examples = Array.of_list fx.corpus.Pipeline.train in
  let score () =
    ignore (Tracer.with_ ("eval." ^ name ^ ".score") (fun () -> Train.score m fx.corpus.Pipeline.valid))
  in
  score ();
  let losses =
    List.init options.Train.epochs (fun i ->
        let epoch = i + 1 in
        Rng.shuffle rng examples;
        let total = ref 0.0 in
        Array.iter
          (fun ex ->
            let tape = Autodiff.tape () in
            let loss = Tracer.with_ ("eval." ^ name ^ ".forward") (fun () -> m.Train.train_loss tape ex) in
            total := !total +. Autodiff.scalar_value loss;
            Tracer.with_ ("eval." ^ name ^ ".backward") (fun () -> Autodiff.backward tape loss);
            Tracer.with_ ("eval." ^ name ^ ".optimizer") (fun () -> clip_and_step opt m))
          examples;
        if epoch mod options.Train.eval_every = 0 || epoch = options.Train.epochs then score ();
        !total /. float_of_int (Array.length examples))
  in
  check_losses (name ^ " (replay)") losses

let replay_batched fx =
  let m = batched_model fx in
  let b = Option.get m.Train.batched in
  let rng = batched_rng fx in
  let opt = Optimizer.adam ~lr:options.Train.lr () in
  let examples = Array.of_list fx.corpus.Pipeline.train in
  let n = Array.length examples in
  let score () =
    ignore (Tracer.with_ "tensor.batched.score" (fun () -> Train.score ~batch m fx.corpus.Pipeline.valid))
  in
  score ();
  let losses =
    List.init options.Train.epochs (fun i ->
        let epoch = i + 1 in
        Rng.shuffle rng examples;
        let total = ref 0.0 in
        let off = ref 0 in
        while !off < n do
          let len = min batch (n - !off) in
          let chunk = Array.sub examples !off len in
          off := !off + len;
          let btape = Batched.tape () in
          let mean =
            Tracer.with_ "tensor.batched.forward" (fun () ->
                let per_ex = b.Train.train_loss_batch btape chunk in
                let v = Batched.value per_ex in
                for g = 0 to len - 1 do
                  total := !total +. Tensor.get v g 0
                done;
                Batched.scale btape (1.0 /. float_of_int len) (Batched.sum_all btape per_ex))
          in
          Tracer.count "tensor.batched.ops" (float_of_int (Batched.length btape));
          Tracer.count "tensor.batched.bytes" (float_of_int btape.Batched.alloc_bytes);
          Tracer.with_ "tensor.batched.backward" (fun () -> Batched.backward btape mean);
          Tracer.with_ "tensor.batched.optimizer" (fun () -> clip_and_step opt m);
          (* padding: each chunk's traces run padded to its longest trace *)
          let lens =
            Array.to_list chunk
            |> List.concat_map (fun (ex : Common.enc_example) ->
                   Array.to_list ex.Common.traces
                   |> List.map (fun (t : Common.enc_trace) -> Array.length t.Common.steps))
          in
          let longest = List.fold_left max 0 lens in
          Tracer.count "tensor.batched.steps" (float_of_int (List.fold_left ( + ) 0 lens));
          Tracer.count "tensor.batched.slots" (float_of_int (longest * List.length lens))
        done;
        if epoch mod options.Train.eval_every = 0 || epoch = options.Train.epochs then score ();
        !total /. float_of_int n)
  in
  check_losses "LiGer batch 8 (replay)" losses

let traced fx =
  let replay_all () =
    List.iter (replay_scalar fx) kinds;
    replay_batched fx
  in
  (* the first pass warms the allocator and the buffer arena; the
     overhead compares the traced pass with the untraced one after it *)
  replay_all ();
  let (), plain_s = Report.time replay_all in
  let w0 = Gc.minor_words () in
  Tracer.on := true;
  (* the batched tape counts its bytes only while the profiler is on *)
  Liger_obs.Profile.enable ();
  let (), traced_s = Report.time replay_all in
  Liger_obs.Profile.disable ();
  Tracer.on := false;
  let e = epoch_examples fx in
  let agg = Tracer.aggregate (Tracer.spans ()) in
  let self = Tracer.self_s agg in
  List.iter
    (fun kind ->
      let m = Experiments.kind_name kind in
      List.iter
        (fun part ->
          Report.metric (Printf.sprintf "eval.%s.%s_s" m part) "s" (self (Printf.sprintf "eval.%s.%s" m part)))
        parts)
    kinds;
  List.iter
    (fun part -> Report.metric ("tensor.batched." ^ part ^ "_s") "s" (self ("tensor.batched." ^ part)))
    [ "forward"; "backward"; "optimizer" ];
  Report.metric "tensor.batched.ops_per_example" "count" (Tracer.counter "tensor.batched.ops" /. e);
  Report.metric "tensor.batched.bytes_per_example" "B" (Tracer.counter "tensor.batched.bytes" /. e);
  Report.metric "tensor.batched.pad_share" "share"
    (1.0 -. (Tracer.counter "tensor.batched.steps" /. Tracer.counter "tensor.batched.slots"));
  Report.metric "gc.minor_words_per_example" "words" ((Gc.minor_words () -. w0) /. (5.0 *. e));
  Report.metric "trace.overhead_s" "s" (traced_s -. plain_s);
  Report.metric "trace.overhead_share" "share" ((traced_s -. plain_s) /. plain_s)
