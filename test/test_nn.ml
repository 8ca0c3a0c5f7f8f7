(* Tests for the NN layer zoo: parameter-space gradient checks for every
   layer (GRU, LSTM, TreeLSTM, attention, decoder) on the batched tape, and
   small end-to-end learning sanity checks. *)

open Liger_tensor
open Liger_nn
open Liger_trace

(* Finite-difference check of d(loss)/d(param) for every parameter in the
   store, where [build] constructs a scalar loss from scratch each call.

   Tolerance: central differences with eps = 1e-5 carry O(eps^2) truncation
   error plus ~1e-6 of float64 cancellation noise on O(1) values, so analytic
   and numeric gradients are compared with a RELATIVE tolerance of 2e-3
   (scaled by 1 + |numeric|).  The decoder stacks a softmax cross-entropy on
   top of a GRU and needs the looser 5e-3. *)
let param_grad_check ?(eps = 1e-5) ?(tol = 2e-3) store build =
  let tape = Batched.tape () in
  let loss = build tape in
  Batched.backward tape loss;
  let grads =
    Param.fold store ~init:[] (fun acc p ->
        (p.Param.name, Tensor.to_array p.Param.grad) :: acc)
  in
  Param.zero_grads store;
  let eval () =
    let tape = Batched.tape () in
    let v = Batched.scalar_value (build tape) in
    Batched.discard tape;
    v
  in
  Param.iter store (fun p ->
      let analytic = List.assoc p.Param.name grads in
      let value = p.Param.value in
      Array.iteri
        (fun i _ ->
          let orig = Tensor.get_idx value i in
          Tensor.set_idx value i (orig +. eps);
          let up = eval () in
          Tensor.set_idx value i (orig -. eps);
          let down = eval () in
          Tensor.set_idx value i orig;
          let numeric = (up -. down) /. (2.0 *. eps) in
          if Float.abs (analytic.(i) -. numeric) > tol *. (1.0 +. Float.abs numeric) then
            Alcotest.failf "%s[%d]: analytic %.6g numeric %.6g" p.Param.name i
              analytic.(i) numeric)
        analytic)

let rand_input rng n = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)

(* a [rows × (|a| / rows)] constant leaf *)
let const ?(rows = 1) tape a = Batched.const_arr tape ~rows ~cols:(Array.length a / rows) a

let sum_sq tape y = Batched.sum_all tape (Batched.mul tape y y)

(* unmasked steps of a sequence *)
let steps tape xs = List.map (fun x -> (const tape x, None)) xs

(* ------------------------------------------------------------------ *)
(* Gradient checks                                                      *)
(* ------------------------------------------------------------------ *)

let test_linear_grads () =
  let store = Param.create_store ~seed:1 () in
  let layer = Linear.create store "lin" ~dim_in:3 ~dim_out:2 in
  let rng = Rng.create 2 in
  let x = rand_input rng 3 in
  param_grad_check store (fun tape -> sum_sq tape (Linear.forward_tanh_batch layer tape (const tape x)))

let test_slice_one_minus_grads () =
  let store = Param.create_store ~seed:3 () in
  let p = Param.matrix store "p" 1 6 in
  ignore p;
  param_grad_check store (fun tape ->
      let v = Batched.of_param tape ~lanes:2 (Param.find store "p") in
      let a = Batched.slice_cols tape v 0 3 in
      let b = Batched.one_minus tape (Batched.slice_cols tape v 3 3) in
      Batched.sum_all tape (Batched.mul tape a b))

let test_vanilla_rnn_grads () =
  let store = Param.create_store ~seed:4 () in
  let cell = Rnn_cell.create ~kind:Rnn_cell.Vanilla store "rnn" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 5 in
  let xs = List.init 3 (fun _ -> rand_input rng 3) in
  param_grad_check store (fun tape -> sum_sq tape (Rnn_cell.last_batch cell tape ~lanes:1 (steps tape xs)))

let test_gru_grads () =
  let store = Param.create_store ~seed:6 () in
  let cell = Rnn_cell.create ~kind:Rnn_cell.Gru store "gru" ~dim_in:2 ~dim_hidden:3 in
  let rng = Rng.create 7 in
  let xs = List.init 3 (fun _ -> rand_input rng 2) in
  param_grad_check store (fun tape -> sum_sq tape (Rnn_cell.last_batch cell tape ~lanes:1 (steps tape xs)))

let test_lstm_grads () =
  let store = Param.create_store ~seed:8 () in
  let cell = Lstm.create store "lstm" ~dim_in:2 ~dim_hidden:3 in
  let rng = Rng.create 9 in
  let xs = List.init 3 (fun _ -> rand_input rng 2) in
  param_grad_check store (fun tape -> sum_sq tape (Lstm.last_batch cell tape ~lanes:1 (steps tape xs)))

let test_treelstm_grads () =
  let store = Param.create_store ~seed:10 () in
  let cell = Treelstm.create store "tree" ~dim_in:3 ~dim_hidden:3 in
  let emb = Param.embedding store "emb" 5 3 in
  let tree =
    Encode.Node
      ("Assign", [ Encode.Leaf "x"; Encode.Node ("Binop", [ Encode.Leaf "+"; Encode.Leaf "x"; Encode.Leaf "1" ]) ])
  in
  let label_id = function
    | "Assign" -> 0 | "x" -> 1 | "Binop" -> 2 | "+" -> 3 | _ -> 4
  in
  param_grad_check store (fun tape ->
      let embed labels = Batched.rows_of_param tape emb (Array.map label_id labels) in
      sum_sq tape (Treelstm.embed_forest cell tape ~embed [ tree ]))

let test_attention_grads () =
  let store = Param.create_store ~seed:11 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:2 ~dim_att:4 in
  let rng = Rng.create 12 in
  let q = rand_input rng 2 in
  let hs = Array.init 3 (fun _ -> rand_input rng 3) in
  let mask = Tensor.full 1 3 1.0 in
  param_grad_check store (fun tape ->
      let q = const tape q in
      let hs = Array.map (const tape) hs in
      sum_sq tape (snd (Attention.fuse_batch att tape ~q ~mask hs)))

let test_decoder_grads () =
  let store = Param.create_store ~seed:13 () in
  let vocab = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id vocab t)) [ "foo"; "bar" ];
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:3 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:3 ~dim_mem:3 in
  let rng = Rng.create 14 in
  let mem = Array.init 2 (fun _ -> rand_input rng 3) in
  let prog = rand_input rng 3 in
  let memory_mask = Tensor.full 1 2 1.0 in
  param_grad_check ~tol:5e-3 store (fun tape ->
      let memory = Array.map (const tape) mem in
      let program_embedding = const tape prog in
      Decoder.loss_batch dec tape ~memory ~memory_mask ~program_embedding
        ~target_ids:[| [ 4; 5 ] |])

(* The 8th layer: embedding rows are parameters too, and only the rows used
   in the forward pass should receive gradient. *)
let test_embedding_grads () =
  let store = Param.create_store ~seed:15 () in
  let vocab = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id vocab t)) [ "foo"; "bar" ];
  Vocab.freeze vocab;
  let e = Embedding_layer.create store "emb" vocab ~dim:3 in
  param_grad_check store (fun tape ->
      let a = Embedding_layer.embed_ids e tape [| 4 |] in
      let b = Embedding_layer.embed_ids e tape [| Vocab.unk_id |] in
      sum_sq tape (Batched.add tape a b))

(* ------------------------------------------------------------------ *)
(* Behaviour                                                            *)
(* ------------------------------------------------------------------ *)

let test_attention_weights_are_distribution () =
  let store = Param.create_store ~seed:15 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:3 ~dim_att:4 in
  let rng = Rng.create 16 in
  let tape = Batched.tape () in
  (* two lanes; lane 1 has only three valid slots *)
  let q = const ~rows:2 tape (rand_input rng 6) in
  let hs = Array.init 4 (fun _ -> const ~rows:2 tape (rand_input rng 6)) in
  let mask = Tensor.full 2 4 1.0 in
  Tensor.set mask 1 3 0.0;
  let w = Attention.weights_batch att tape ~q ~mask hs in
  for l = 0 to 1 do
    let sum = Array.fold_left ( +. ) 0.0 (Batched.row_value w l) in
    Alcotest.(check bool) "sums to 1" true (Float.abs (sum -. 1.0) < 1e-9)
  done;
  Alcotest.(check (float 0.0)) "masked slot weight" 0.0 (Batched.row_value w 1).(3);
  Batched.discard tape

let test_fuse_uniform () =
  let tape = Batched.tape () in
  let hs = [| const tape [| 1.0; 2.0 |]; const tape [| 3.0; 4.0 |] |] in
  let w, fused = Attention.fuse_uniform_batch tape ~mask:(Tensor.full 1 2 1.0) hs in
  Alcotest.(check (array (float 1e-9))) "weights" [| 0.5; 0.5 |] (Batched.row_value w 0);
  Alcotest.(check (array (float 1e-9))) "mean" [| 2.0; 3.0 |] (Batched.row_value fused 0);
  Batched.discard tape

let test_embedding_unseen_maps_to_unk () =
  let store = Param.create_store ~seed:17 () in
  let vocab = Vocab.create () in
  ignore (Vocab.id vocab "known");
  Vocab.freeze vocab;
  let e = Embedding_layer.create store "emb" vocab ~dim:4 in
  let tape = Batched.tape () in
  let unseen = Embedding_layer.embed_batch e tape [| "never-seen" |] in
  let unk = Embedding_layer.embed_ids e tape [| Vocab.unk_id |] in
  Alcotest.(check (array (float 0.0)))
    "same row" (Batched.row_value unk 0) (Batched.row_value unseen 0);
  Batched.discard tape

(* A GRU must learn to classify whether a +/-1 sequence has positive sum. *)
let test_gru_learns_sign_task () =
  let store = Param.create_store ~seed:18 () in
  let cell = Rnn_cell.create store "gru" ~dim_in:2 ~dim_hidden:8 in
  let out = Linear.create store "out" ~dim_in:8 ~dim_out:2 in
  let opt = Optimizer.adam ~lr:0.01 () in
  let rng = Rng.create 19 in
  let sample () =
    let len = 3 + Rng.int rng 5 in
    let xs = List.init len (fun _ -> if Rng.bool rng then 1 else -1) in
    let sum = List.fold_left ( + ) 0 xs in
    (xs, if sum > 0 then 1 else 0)
  in
  let encode x = if x > 0 then [| 1.0; 0.0 |] else [| 0.0; 1.0 |] in
  let step train (xs, label) =
    let tape = Batched.tape () in
    let h = Rnn_cell.last_batch cell tape ~lanes:1 (steps tape (List.map encode xs)) in
    let logits = Linear.forward_batch out tape h in
    let loss, _ = Batched.softmax_xent_rows tape logits ~targets:[| label |] ~weights:[| 1.0 |] in
    let hit = Tensor.argmax (Batched.row_value logits 0) = label in
    if train then begin
      Batched.backward tape loss;
      Optimizer.step opt store
    end
    else Batched.discard tape;
    hit
  in
  for _ = 1 to 600 do
    ignore (step true (sample ()))
  done;
  let correct = ref 0 in
  let n = 100 in
  for _ = 1 to n do
    if step false (sample ()) then incr correct
  done;
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %d%% >= 90%%" !correct)
    true (!correct >= 90)

(* [f] over a one-lane decoder memory built from raw slot vectors *)
let with_memory mem_raw prog_raw f =
  let tape = Batched.tape () in
  let r =
    f tape ~memory:(Array.map (const tape) mem_raw)
      ~memory_mask:(Tensor.full 1 (Array.length mem_raw) 1.0)
      ~program_embedding:(const tape prog_raw)
  in
  Batched.discard tape;
  r

(* [steps] Adam steps on the teacher-forced loss of one target *)
let train_decoder dec store opt ~steps mem_raw prog_raw target =
  for _ = 1 to steps do
    let tape = Batched.tape () in
    let loss =
      Decoder.loss_batch dec tape
        ~memory:(Array.map (const tape) mem_raw)
        ~memory_mask:(Tensor.full 1 (Array.length mem_raw) 1.0)
        ~program_embedding:(const tape prog_raw) ~target_ids:[| target |]
    in
    Batched.backward tape loss;
    Optimizer.step opt store
  done

(* The decoder must learn to emit a fixed 2-token name from a constant
   program embedding: a pure capacity/wiring check. *)
let test_decoder_learns_constant_sequence () =
  let store = Param.create_store ~seed:20 () in
  let vocab = Vocab.create () in
  let ids = List.map (Vocab.id vocab) [ "get"; "max"; "other" ] in
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:6 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:6 ~dim_mem:4 in
  let opt = Optimizer.adam ~lr:0.02 () in
  let mem_raw = [| [| 1.0; 0.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0; 0.0 |] |] in
  let prog_raw = [| 0.5; -0.5; 0.25; 0.0 |] in
  let target = [ List.nth ids 0; List.nth ids 1 ] in
  train_decoder dec store opt ~steps:150 mem_raw prog_raw target;
  let decoded =
    with_memory mem_raw prog_raw (fun tape ~memory ~memory_mask ~program_embedding ->
        (Decoder.decode_batch dec tape ~memory ~memory_mask ~program_embedding).(0))
  in
  Alcotest.(check (list int)) "decodes getMax" target decoded

let test_beam_search_matches_greedy_when_k1 () =
  let store = Param.create_store ~seed:30 () in
  let vocab = Vocab.create () in
  List.iter (fun t -> ignore (Vocab.id vocab t)) [ "a"; "b"; "c" ];
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:4 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:4 ~dim_mem:3 in
  let rng = Rng.create 31 in
  let mem = Array.init 2 (fun _ -> rand_input rng 3) in
  let prog = rand_input rng 3 in
  let greedy, beam1 =
    with_memory mem prog (fun tape ~memory ~memory_mask ~program_embedding ->
        ( (Decoder.decode_batch dec tape ~memory ~memory_mask ~program_embedding).(0),
          Decoder.decode_beam ~k:1 dec tape ~memory ~memory_mask ~program_embedding ))
  in
  Alcotest.(check (list int)) "k=1 equals greedy" greedy beam1

let test_beam_search_never_worse_nll () =
  (* after training the toy decoder, beam-3 must reproduce the target at
     least as reliably as greedy *)
  let store = Param.create_store ~seed:32 () in
  let vocab = Vocab.create () in
  let ids = List.map (Vocab.id vocab) [ "get"; "max"; "noise" ] in
  Vocab.freeze vocab;
  let embedding = Embedding_layer.create store "emb" vocab ~dim:6 in
  let dec = Decoder.create store "dec" embedding ~dim_hidden:6 ~dim_mem:4 in
  let opt = Optimizer.adam ~lr:0.02 () in
  let mem_raw = [| [| 1.0; 0.0; 0.0; 0.0 |] |] in
  let prog_raw = [| 0.5; -0.5; 0.25; 0.0 |] in
  let target = [ List.nth ids 0; List.nth ids 1 ] in
  train_decoder dec store opt ~steps:120 mem_raw prog_raw target;
  let beam =
    with_memory mem_raw prog_raw (fun tape ~memory ~memory_mask ~program_embedding ->
        Decoder.decode_beam ~k:3 dec tape ~memory ~memory_mask ~program_embedding)
  in
  Alcotest.(check (list int)) "beam decodes the target" target beam

let test_treelstm_distinguishes_trees () =
  (* different trees must produce different embeddings (no collapse) *)
  let store = Param.create_store ~seed:21 () in
  let cell = Treelstm.create store "tree" ~dim_in:4 ~dim_hidden:4 in
  let emb = Param.embedding store "emb" 8 4 in
  let labels = Hashtbl.create 8 in
  let label_id tok =
    match Hashtbl.find_opt labels tok with
    | Some i -> i
    | None ->
        let i = Hashtbl.length labels in
        Hashtbl.add labels tok i;
        i
  in
  let h_of tree =
    let tape = Batched.tape () in
    let embed labels = Batched.rows_of_param tape emb (Array.map label_id labels) in
    let v = Batched.row_value (Treelstm.embed_forest cell tape ~embed [ tree ]) 0 in
    Batched.discard tape;
    v
  in
  let t1 = Encode.Node ("Binop", [ Encode.Leaf "+"; Encode.Leaf "x"; Encode.Leaf "x" ]) in
  let t2 = Encode.Node ("Binop", [ Encode.Leaf "*"; Encode.Leaf "x"; Encode.Leaf "2" ]) in
  let d =
    Array.fold_left ( +. ) 0.0
      (Array.mapi (fun i a -> Float.abs (a -. (h_of t2).(i))) (h_of t1))
  in
  Alcotest.(check bool) "embeddings differ" true (d > 1e-6)

let test_rnn_run_lengths () =
  let store = Param.create_store ~seed:22 () in
  let cell = Rnn_cell.create store "gru" ~dim_in:2 ~dim_hidden:3 in
  let tape = Batched.tape () in
  let xs = List.init 5 (fun _ -> (const ~rows:2 tape [| 1.0; 0.0; 0.0; 1.0 |], None)) in
  Alcotest.(check int) "one state per input" 5 (List.length (Rnn_cell.run_batch cell tape ~lanes:2 xs));
  let h = Rnn_cell.last_batch cell tape ~lanes:2 [] in
  Alcotest.(check int) "empty -> initial state" 3 (Batched.dim h);
  Alcotest.(check int) "one row per lane" 2 (Batched.lanes h);
  Batched.discard tape

let () =
  Alcotest.run "nn"
    [
      ( "gradients",
        [
          Alcotest.test_case "linear" `Quick test_linear_grads;
          Alcotest.test_case "slice/one_minus" `Quick test_slice_one_minus_grads;
          Alcotest.test_case "vanilla rnn" `Quick test_vanilla_rnn_grads;
          Alcotest.test_case "gru" `Quick test_gru_grads;
          Alcotest.test_case "lstm" `Quick test_lstm_grads;
          Alcotest.test_case "treelstm" `Quick test_treelstm_grads;
          Alcotest.test_case "attention" `Quick test_attention_grads;
          Alcotest.test_case "decoder" `Quick test_decoder_grads;
          Alcotest.test_case "embedding" `Quick test_embedding_grads;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "attention distribution" `Quick test_attention_weights_are_distribution;
          Alcotest.test_case "uniform fusion" `Quick test_fuse_uniform;
          Alcotest.test_case "unk embedding" `Quick test_embedding_unseen_maps_to_unk;
          Alcotest.test_case "gru learns sign task" `Slow test_gru_learns_sign_task;
          Alcotest.test_case "decoder learns sequence" `Slow test_decoder_learns_constant_sequence;
          Alcotest.test_case "treelstm distinguishes" `Quick test_treelstm_distinguishes_trees;
          Alcotest.test_case "beam k=1 is greedy" `Quick test_beam_search_matches_greedy_when_k1;
          Alcotest.test_case "beam decodes target" `Slow test_beam_search_never_worse_nll;
          Alcotest.test_case "rnn run lengths" `Quick test_rnn_run_lengths;
        ] );
    ]
