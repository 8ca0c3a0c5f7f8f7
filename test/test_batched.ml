(* Batched-engine suite: the contract is that every lib/nn layer computes
   each lane of a batch bit for bit as it computes that lane alone, and
   matches a naive float-array reference of its math; that padded lanes
   and masked slots receive EXACTLY zero gradient; and that the GEMM
   kernels agree with a naive reference bitwise-deterministically across
   parallel schedules.  Ends with every model's loss_batch per lane vs
   alone and Train.fit determinism across pool sizes. *)

open Liger_tensor
open Liger_nn
open Liger_trace

let rand_arr rng n = Array.init n (fun _ -> Rng.uniform rng (-1.0) 1.0)

let check_close ?(tol = 1e-6) name expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: length %d vs %d" name (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      let a = actual.(i) in
      if Float.abs (e -. a) > tol *. (1.0 +. Float.abs e) then
        Alcotest.failf "%s[%d]: expected %.9g got %.9g" name i e a)
    expected

let store_grads store =
  Param.fold store ~init:[] (fun acc p ->
      (p.Param.name, Tensor.to_array p.Param.grad) :: acc)

let check_grads ?(tol = 1e-6) tag expected actual =
  List.iter
    (fun (name, e) -> check_close ~tol (tag ^ "/grad " ^ name) e (List.assoc name actual))
    expected

let sq_loss_batched btape y = Batched.sum_all btape (Batched.mul btape y y)

(* ------------------------------------------------------------------ *)
(* GEMM kernels vs naive reference; sliced windows; schedule invariance *)
(* ------------------------------------------------------------------ *)

let naive_nt ~alpha ~beta a b c =
  let m = a.Tensor.rows and k = a.Tensor.cols and n = b.Tensor.rows in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a i p *. Tensor.get b j p)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let naive_nn ~alpha ~beta a b c =
  let m = a.Tensor.rows and k = a.Tensor.cols and n = b.Tensor.cols in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a i p *. Tensor.get b p j)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let naive_tn ~alpha ~beta a b c =
  let k = a.Tensor.rows and m = a.Tensor.cols and n = b.Tensor.cols in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for p = 0 to k - 1 do
        acc := !acc +. (Tensor.get a p i *. Tensor.get b p j)
      done;
      Tensor.set c i j ((beta *. Tensor.get c i j) +. (alpha *. !acc))
    done
  done

let rand_tensor rng rows cols =
  let t = Tensor.create rows cols in
  for i = 0 to (rows * cols) - 1 do
    Tensor.set_idx t i (Rng.uniform rng (-1.0) 1.0)
  done;
  t

let test_gemm_vs_naive () =
  let rng = Rng.create 11 in
  List.iter
    (fun (alpha, beta) ->
      let a = rand_tensor rng 7 5 and b = rand_tensor rng 9 5 in
      let c = rand_tensor rng 7 9 and c' = Tensor.copy (rand_tensor rng 7 9) in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_nt ~alpha ~beta a b c;
      naive_nt ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_nt" (Tensor.to_array c') (Tensor.to_array c);
      let a = rand_tensor rng 6 4 and b = rand_tensor rng 4 8 in
      let c = rand_tensor rng 6 8 and c' = Tensor.create 6 8 in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_nn ~alpha ~beta a b c;
      naive_nn ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_nn" (Tensor.to_array c') (Tensor.to_array c);
      let a = rand_tensor rng 5 6 and b = rand_tensor rng 5 7 in
      let c = rand_tensor rng 6 7 and c' = Tensor.create 6 7 in
      Tensor.blit_from_array (Tensor.to_array c) c';
      Tensor.gemm_tn ~alpha ~beta a b c;
      naive_tn ~alpha ~beta a b c';
      check_close ~tol:1e-12 "gemm_tn" (Tensor.to_array c') (Tensor.to_array c))
    [ (1.0, 0.0); (1.0, 1.0); (0.5, 2.0) ]

(* sliced kernels = dense kernels on a materialised copy of the window *)
let test_gemm_slices () =
  let rng = Rng.create 12 in
  let ld = 9 and boff = 3 and k = 4 in
  let wide = rand_tensor rng 6 ld in
  let slice =
    let s = Tensor.create 6 k in
    for i = 0 to 5 do
      for j = 0 to k - 1 do
        Tensor.set s i j (Tensor.get wide i (boff + j))
      done
    done;
    s
  in
  (* nt: A(5×k) · wide[:,boff..)^T *)
  let a = rand_tensor rng 5 k in
  let c = Tensor.create 5 6 and c' = Tensor.create 5 6 in
  Tensor.gemm_nt_slice ~beta:0.0 ~ld ~boff a wide c;
  Tensor.gemm_nt ~beta:0.0 a slice c';
  check_close ~tol:1e-12 "gemm_nt_slice" (Tensor.to_array c') (Tensor.to_array c);
  (* nn: A(5×6) · wide[:,boff..) *)
  let a = rand_tensor rng 5 6 in
  let c = Tensor.create 5 k and c' = Tensor.create 5 k in
  Tensor.gemm_nn_slice ~beta:0.0 ~ld ~boff a wide c;
  Tensor.gemm_nn ~beta:0.0 a slice c';
  check_close ~tol:1e-12 "gemm_nn_slice" (Tensor.to_array c') (Tensor.to_array c);
  (* tn: writes only the addressed window of the wide C *)
  let a = rand_tensor rng 5 6 and b = rand_tensor rng 5 k in
  let cw = rand_tensor rng 6 ld in
  let before = Tensor.to_array cw in
  let cs = Tensor.create 6 k in
  Tensor.gemm_tn ~beta:0.0 a b cs;
  Tensor.gemm_tn_slice ~beta:1.0 ~ld ~coff:boff a b cw;
  for i = 0 to 5 do
    for j = 0 to ld - 1 do
      let got = Tensor.get cw i j in
      let want =
        if j >= boff && j < boff + k then
          before.((i * ld) + j) +. Tensor.get cs i (j - boff)
        else before.((i * ld) + j)
      in
      if Float.abs (got -. want) > 1e-12 then
        Alcotest.failf "gemm_tn_slice[%d,%d]: expected %.9g got %.9g" i j want got
    done
  done

(* the fixed block partition must make jobs=1 and jobs=N bitwise equal *)
let test_gemm_parallel_bitwise () =
  let module Par = Liger_parallel.Parallel in
  let rng = Rng.create 13 in
  let a = rand_tensor rng 33 17 and b = rand_tensor rng 21 17 in
  let seq = Tensor.create 33 21 and par = Tensor.create 33 21 in
  let saved = Par.jobs () in
  Fun.protect
    ~finally:(fun () ->
      Tensor.set_gemm_par_flops 4_000_000;
      Par.set_jobs saved)
    (fun () ->
      Tensor.set_gemm_par_flops max_int;
      Tensor.gemm_nt ~beta:0.0 a b seq;
      Par.set_jobs 4;
      Tensor.set_gemm_par_flops 0;
      Tensor.gemm_nt ~beta:0.0 a b par;
      if Tensor.to_array seq <> Tensor.to_array par then
        Alcotest.fail "gemm_nt: jobs=1 and jobs=4 disagree bitwise")

(* ------------------------------------------------------------------ *)
(* Batched primitive ops                                               *)
(* ------------------------------------------------------------------ *)

let test_stack_to_cols () =
  let l = 2 and k = 3 in
  let btape = Batched.tape () in
  let a = Batched.const_arr btape ~rows:(k * l) ~cols:1 [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let out = Batched.stack_to_cols btape a ~lanes:l in
  (* slot-major column: row (kk*l + i) lands at [i, kk] *)
  check_close ~tol:0.0 "stack_to_cols lane0" [| 1.; 3.; 5. |] (Batched.row_value out 0);
  check_close ~tol:0.0 "stack_to_cols lane1" [| 2.; 4.; 6. |] (Batched.row_value out 1);
  let loss = sq_loss_batched btape out in
  let expect_grad = Array.map (fun v -> 2.0 *. v) [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  Batched.backward btape loss;
  check_close ~tol:1e-12 "stack_to_cols grad"
    expect_grad
    (Array.init (k * l) (fun i -> (Batched.row_grad a i).(0)))

let test_add_rows_cycle () =
  let btape = Batched.tape () in
  let a = Batched.const_arr btape ~rows:4 ~cols:2 [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. |] in
  let b = Batched.const_arr btape ~rows:2 ~cols:2 [| 10.; 20.; 30.; 40. |] in
  let out = Batched.add_rows_cycle btape a b in
  check_close ~tol:0.0 "cycle row0" [| 11.; 22. |] (Batched.row_value out 0);
  check_close ~tol:0.0 "cycle row1" [| 33.; 44. |] (Batched.row_value out 1);
  check_close ~tol:0.0 "cycle row2" [| 15.; 26. |] (Batched.row_value out 2);
  check_close ~tol:0.0 "cycle row3" [| 37.; 48. |] (Batched.row_value out 3);
  Batched.backward btape (Batched.sum_all btape out);
  (* d(sum)/da = 1 everywhere; d(sum)/db sums the two blocks *)
  for i = 0 to 3 do
    check_close ~tol:0.0 "cycle da" [| 1.; 1. |] (Batched.row_grad a i)
  done;
  for i = 0 to 1 do
    check_close ~tol:0.0 "cycle db" [| 2.; 2. |] (Batched.row_grad b i)
  done

(* buffers released by one tape are reused by the next, and reuse must not
   leak stale values into freshly-leased zeroed gradients *)
let test_bufpool_reuse () =
  let run () =
    let btape = Batched.tape () in
    let a = Batched.const_arr btape ~rows:8 ~cols:8 (rand_arr (Rng.create 21) 64) in
    let loss = sq_loss_batched btape (Batched.tanh_ btape a) in
    let v = Batched.scalar_value loss in
    Batched.backward btape loss;
    v
  in
  let v1 = run () in
  let v2 = run () in
  if v1 <> v2 then Alcotest.failf "bufpool reuse changed a result: %.17g vs %.17g" v1 v2

(* ------------------------------------------------------------------ *)
(* Per-layer lane contract: a G-lane batch equals each lane run alone,
   bit for bit (what serving relies on), and every lane matches a naive
   float-array reference of the layer's math written out below.         *)
(* ------------------------------------------------------------------ *)

let lanes = 3

(* [forward ids] runs the layer on the lanes [ids] (one tape) and returns
   one output row per lane; [reference l] is lane [l] computed naively. *)
let layer_check ?(tol = 1e-9) name ~forward ~reference =
  let all = forward (Array.init lanes Fun.id) in
  Array.iteri
    (fun l row ->
      if row <> (forward [| l |]).(0) then
        Alcotest.failf "%s: lane %d differs between a %d-lane batch and alone" name l lanes;
      check_close ~tol (Printf.sprintf "%s/lane %d vs reference" name l) (reference l) row)
    all

(* run [f] on a fresh tape, copying out every row of the node it returns *)
let rows_of f =
  let btape = Batched.tape () in
  let n = f btape in
  let rows = Array.init (Batched.lanes n) (Batched.row_value n) in
  Batched.discard btape;
  rows

(* the lanes [ids] of per-lane vectors [xs] as one [|ids| × dim] leaf *)
let pick btape xs ids =
  Batched.const_arr btape ~rows:(Array.length ids) ~cols:(Array.length xs.(0))
    (Array.concat (Array.to_list (Array.map (fun l -> xs.(l)) ids)))

(* --- the naive reference: float arrays, one loop per formula --- *)
module Ref = struct
  let vec (p : Param.t) = Tensor.to_array p.Param.value

  (* W x (+ b) *)
  let matvec (w : Param.t) x =
    Array.init (Param.rows w) (fun i ->
        let acc = ref 0.0 in
        Array.iteri (fun j xj -> acc := !acc +. (Tensor.get w.Param.value i j *. xj)) x;
        !acc)

  let add = Array.map2 ( +. )
  let mul = Array.map2 ( *. )
  let sigmoid = Array.map (fun x -> 1.0 /. (1.0 +. exp (-.x)))
  let tanh = Array.map Stdlib.tanh
  let slice a off len = Array.sub a off len
  let affine (l : Linear.t) x = add (matvec l.Linear.w x) (vec l.Linear.b)

  let softmax a =
    let m = Array.fold_left Float.max neg_infinity a in
    let e = Array.map (fun x -> exp (x -. m)) a in
    let z = Array.fold_left ( +. ) 0.0 e in
    Array.map (fun x -> x /. z) e

  let weighted_sum w vs =
    Array.init (Array.length vs.(0)) (fun c ->
        let acc = ref 0.0 in
        Array.iteri (fun k v -> acc := !acc +. (w.(k) *. v.(c))) vs;
        !acc)

  let rnn_step (cell : Rnn_cell.t) h x =
    match cell.Rnn_cell.spec with
    | Rnn_cell.Svanilla { wx; wh; b } -> tanh (add (add (matvec wx x) (matvec wh h)) (vec b))
    | Rnn_cell.Sgru { gates; cand } ->
        let d = cell.Rnn_cell.dim_hidden in
        let rz = sigmoid (affine gates (Array.append x h)) in
        let r = slice rz 0 d and z = slice rz d d in
        let h_tilde = tanh (affine cand (Array.append x (mul r h))) in
        Array.init d (fun i -> (z.(i) *. h_tilde.(i)) +. ((1.0 -. z.(i)) *. h.(i)))

  let rnn_last cell xs = List.fold_left (rnn_step cell) (vec cell.Rnn_cell.h0) xs

  let lstm_last (cell : Lstm.t) xs =
    let d = cell.Lstm.dim_hidden in
    let h, _ =
      List.fold_left
        (fun (h, c) x ->
          let pre = affine cell.Lstm.gates (Array.append x h) in
          let gate k = slice pre (k * d) d in
          let c = add (mul (sigmoid (gate 1)) c) (mul (sigmoid (gate 0)) (tanh (gate 3))) in
          (mul (sigmoid (gate 2)) (tanh c), c))
        (vec cell.Lstm.h0, vec cell.Lstm.c0)
        xs
    in
    h

  (* v . tanh(W (h ++ q) + b), softmax over candidates, weighted sum *)
  let fuse (att : Attention.t) q hs =
    let scores =
      Array.map
        (fun h ->
          let s = tanh (affine att.Attention.proj (Array.append h q)) in
          (matvec att.Attention.v s).(0))
        hs
    in
    weighted_sum (softmax scores) hs

  let rec tree_state (tl : Treelstm.t) embed (tree : Encode.tree) =
    let d = tl.Treelstm.dim_hidden in
    let label, children =
      match tree with Encode.Leaf l -> (l, []) | Encode.Node (l, cs) -> (l, cs)
    in
    let kids = List.map (tree_state tl embed) children in
    let h_sum = List.fold_left (fun acc (h, _) -> add acc h) (Array.make d 0.0) kids in
    let wxx = matvec tl.Treelstm.wx (embed label) and uhh = matvec tl.Treelstm.uh h_sum in
    let b = vec tl.Treelstm.b in
    let gate k = add (add (slice wxx (k * d) d) (slice uhh (k * d) d)) (slice b (k * d) d) in
    let f_base = add (slice wxx (3 * d) d) (slice b (3 * d) d) in
    let forget =
      List.fold_left
        (fun acc (h_k, c_k) -> add acc (mul (sigmoid (add f_base (matvec tl.Treelstm.uf h_k))) c_k))
        (Array.make d 0.0) kids
    in
    let c = add (mul (sigmoid (gate 0)) (tanh (gate 2))) forget in
    (mul (sigmoid (gate 1)) (tanh c), c)

  (* teacher-forced NLL of [targets @ [eos]] *)
  let decoder_loss (dec : Decoder.t) ~memory ~prog targets =
    let table = dec.Decoder.embedding.Embedding_layer.table in
    let emb id = Array.init (Param.cols table) (fun j -> Tensor.get table.Param.value id j) in
    let h = ref (tanh (affine dec.Decoder.bridge prog)) and prev = ref Vocab.sos_id in
    List.fold_left
      (fun total target ->
        let context = fuse dec.Decoder.att !h memory in
        let h' = rnn_step dec.Decoder.cell !h (Array.append (emb !prev) context) in
        let probs = softmax (affine dec.Decoder.out (Array.append h' context)) in
        h := h';
        prev := target;
        total -. log probs.(target))
      0.0 (targets @ [ Vocab.eos_id ])
end

let test_linear_equiv () =
  let store = Param.create_store ~seed:31 () in
  let layer = Linear.create store "lin" ~dim_in:4 ~dim_out:3 in
  let rng = Rng.create 32 in
  let xs = Array.init lanes (fun _ -> rand_arr rng 4) in
  layer_check "linear"
    ~forward:(fun ids -> rows_of (fun bt -> Linear.forward_tanh_batch layer bt (pick bt xs ids)))
    ~reference:(fun l -> Ref.tanh (Ref.affine layer xs.(l)))

let test_embedding_equiv () =
  let v = Vocab.create () in
  List.iter (fun s -> ignore (Vocab.add v s)) [ "alpha"; "beta"; "gamma" ];
  Vocab.freeze v;
  let store = Param.create_store ~seed:33 () in
  let emb = Embedding_layer.create store "emb" v ~dim:5 in
  (* a duplicate id and an out-of-range one (falls back to unk) *)
  let ids = [| 4; 6; 99 |] in
  layer_check ~tol:0.0 "embedding"
    ~forward:(fun sel -> rows_of (fun bt -> Embedding_layer.embed_ids emb bt (Array.map (fun l -> ids.(l)) sel)))
    ~reference:(fun l ->
      let id = if ids.(l) >= Vocab.size v then Vocab.unk_id else ids.(l) in
      Array.init 5 (fun j -> Tensor.get emb.Embedding_layer.table.Param.value id j))

let rnn_equiv kind name =
  let store = Param.create_store ~seed:34 () in
  let cell = Rnn_cell.create ~kind store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 35 in
  let steps = 3 in
  let xs = Array.init steps (fun _ -> Array.init lanes (fun _ -> rand_arr rng 3)) in
  layer_check name
    ~forward:(fun ids ->
      rows_of (fun bt ->
          Rnn_cell.last_batch cell bt ~lanes:(Array.length ids)
            (List.init steps (fun s -> (pick bt xs.(s) ids, None)))))
    ~reference:(fun l -> Ref.rnn_last cell (List.init steps (fun s -> xs.(s).(l))))

let test_gru_equiv () = rnn_equiv Rnn_cell.Gru "rnn_cell.gru"
let test_vanilla_equiv () = rnn_equiv Rnn_cell.Vanilla "rnn_cell.vanilla"

let test_lstm_equiv () =
  let store = Param.create_store ~seed:36 () in
  let cell = Lstm.create store "lstm" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 37 in
  let steps = 3 in
  let xs = Array.init steps (fun _ -> Array.init lanes (fun _ -> rand_arr rng 3)) in
  layer_check "lstm"
    ~forward:(fun ids ->
      rows_of (fun bt ->
          Lstm.last_batch cell bt ~lanes:(Array.length ids)
            (List.init steps (fun s -> (pick bt xs.(s) ids, None)))))
    ~reference:(fun l -> Ref.lstm_last cell (List.init steps (fun s -> xs.(s).(l))))

(* perturb the zero-initialised scorer direction so attention weights are
   not trivially uniform *)
let kick_attention_v store name =
  let p = Param.find store name in
  let rng = Rng.create 99 in
  for i = 0 to Tensor.size p.Param.value - 1 do
    Tensor.set_idx p.Param.value i (Rng.uniform rng (-0.5) 0.5)
  done

let test_attention_equiv () =
  let store = Param.create_store ~seed:38 () in
  let att = Attention.create store "att" ~dim_h:4 ~dim_q:3 ~dim_att:5 in
  kick_attention_v store "att.v";
  let rng = Rng.create 39 in
  let k = 3 in
  let qs = Array.init lanes (fun _ -> rand_arr rng 3) in
  let hs = Array.init k (fun _ -> Array.init lanes (fun _ -> rand_arr rng 4)) in
  layer_check "attention"
    ~forward:(fun ids ->
      rows_of (fun bt ->
          let mask = Tensor.full (Array.length ids) k 1.0 in
          snd
            (Attention.fuse_batch att bt ~q:(pick bt qs ids) ~mask
               (Array.map (fun slot -> pick bt slot ids) hs))))
    ~reference:(fun l -> Ref.fuse att qs.(l) (Array.map (fun slot -> slot.(l)) hs))

let trees =
  Encode.
    [
      Node ("add", [ Leaf "x"; Node ("mul", [ Leaf "y"; Leaf "two" ]) ]);
      Leaf "lone";
      Node ("neg", [ Node ("abs", [ Leaf "z" ]) ]);
    ]

(* deterministic token -> R^3 so both paths embed identically *)
let tok_vec tok =
  let h = Hashtbl.hash tok in
  Array.init 3 (fun i -> float_of_int (((h lsr (4 * i)) land 15) - 8) /. 8.0)

let embed_labels btape labels =
  Batched.const_arr btape ~rows:(Array.length labels) ~cols:3
    (Array.concat (Array.to_list (Array.map tok_vec labels)))

let test_treelstm_equiv () =
  let store = Param.create_store ~seed:40 () in
  let tl = Treelstm.create store "tl" ~dim_in:3 ~dim_hidden:4 in
  let trees = Array.of_list trees in
  layer_check "treelstm"
    ~forward:(fun ids ->
      rows_of (fun bt ->
          Treelstm.embed_forest tl bt ~embed:(embed_labels bt)
            (Array.to_list (Array.map (fun l -> trees.(l)) ids))))
    ~reference:(fun l -> fst (Ref.tree_state tl tok_vec trees.(l)))

let make_decoder () =
  let v = Vocab.create () in
  List.iter (fun s -> ignore (Vocab.add v s)) [ "get"; "size"; "name" ];
  Vocab.freeze v;
  let store = Param.create_store ~seed:41 () in
  let emb = Embedding_layer.create store "emb" v ~dim:3 in
  let dec = Decoder.create store "dec" emb ~dim_hidden:4 ~dim_mem:5 in
  kick_attention_v store "dec.att.v";
  (store, dec)

let test_decoder_equiv () =
  let _, dec = make_decoder () in
  let rng = Rng.create 42 in
  let k = 2 in
  let mems = Array.init k (fun _ -> Array.init lanes (fun _ -> rand_arr rng 5)) in
  let progs = Array.init lanes (fun _ -> rand_arr rng 5) in
  (* ragged targets: lane 1 finishes earlier, exercising weight-0 steps *)
  let targets = [| [ 4; 5 ]; [ 6 ]; [ 5; 4 ] |] in
  layer_check "decoder"
    ~forward:(fun ids ->
      rows_of (fun bt ->
          Decoder.loss_batch dec bt
            ~memory:(Array.map (fun slot -> pick bt slot ids) mems)
            ~memory_mask:(Tensor.full (Array.length ids) k 1.0)
            ~program_embedding:(pick bt progs ids)
            ~target_ids:(Array.map (fun l -> targets.(l)) ids)))
    ~reference:(fun l ->
      [| Ref.decoder_loss dec ~memory:(Array.map (fun slot -> slot.(l)) mems) ~prog:progs.(l)
           targets.(l) |])

(* ------------------------------------------------------------------ *)
(* Masking: padded lanes and dead slots get EXACTLY zero gradient       *)
(* ------------------------------------------------------------------ *)

let test_masked_step_zero_grad () =
  let store = Param.create_store ~seed:51 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 52 in
  let btape = Batched.tape () in
  let x1 = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  let x2 = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  (* lane 1 is padded on step 2 *)
  let steps = [ (x1, None); (x2, Some [| 1.0; 0.0 |]) ] in
  let hs = Rnn_cell.run_batch cell btape ~lanes:2 steps in
  let h1, h2 =
    match hs with [ a; b ] -> (a, b) | _ -> Alcotest.fail "expected two states"
  in
  (* frozen lane carries its previous state bit-for-bit *)
  check_close ~tol:0.0 "frozen lane value" (Batched.row_value h1 1) (Batched.row_value h2 1);
  Batched.backward btape (sq_loss_batched btape h2);
  let g = Batched.row_grad x2 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "padded-lane grad x2[1][%d] = %.3g <> 0" i v)
    g;
  ignore store

let test_masked_softmax_dead_slot () =
  let store = Param.create_store ~seed:53 () in
  let att = Attention.create store "att" ~dim_h:4 ~dim_q:3 ~dim_att:5 in
  kick_attention_v store "att.v";
  let rng = Rng.create 54 in
  let btape = Batched.tape () in
  let q = Batched.const_arr btape ~rows:2 ~cols:3 (rand_arr rng 6) in
  let cands = Array.init 2 (fun _ -> Batched.const_arr btape ~rows:2 ~cols:4 (rand_arr rng 8)) in
  let mask = Tensor.create 2 2 in
  Tensor.fill mask 1.0;
  Tensor.set mask 1 1 0.0;
  (* lane 1: only slot 0 is valid *)
  let w, fused = Attention.fuse_batch att btape ~q ~mask cands in
  check_close ~tol:0.0 "single-valid-slot weights" [| 1.0; 0.0 |] (Batched.row_value w 1);
  check_close ~tol:1e-12 "fused = the one valid candidate" (Batched.row_value cands.(0) 1)
    (Batched.row_value fused 1);
  Batched.backward btape (sq_loss_batched btape fused);
  let g = Batched.row_grad cands.(1) 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "dead-slot grad [%d] = %.3g <> 0" i v)
    g

let test_xent_zero_weight_rows () =
  let btape = Batched.tape () in
  let rng = Rng.create 55 in
  let logits = Batched.const_arr btape ~rows:2 ~cols:4 (rand_arr rng 8) in
  let nll, _ =
    Batched.softmax_xent_rows btape logits ~targets:[| 1; 2 |] ~weights:[| 1.0; 0.0 |]
  in
  check_close ~tol:0.0 "weight-0 row loss" [| 0.0 |] (Batched.row_value nll 1);
  Batched.backward btape (Batched.sum_all btape nll);
  let g = Batched.row_grad logits 1 in
  Array.iteri
    (fun i v -> if v <> 0.0 then Alcotest.failf "weight-0 row grad [%d] = %.3g <> 0" i v)
    g

(* ------------------------------------------------------------------ *)
(* Finite-difference gradcheck directly on the batched path            *)
(* ------------------------------------------------------------------ *)

let bgrad_check ?(eps = 1e-5) ?(tol = 2e-3) store build =
  let btape = Batched.tape () in
  let loss = build btape in
  Batched.backward btape loss;
  let grads = store_grads store in
  Param.zero_grads store;
  let eval () =
    let bt = Batched.tape () in
    let l = build bt in
    let v = Batched.scalar_value l in
    Batched.discard bt;
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
            Alcotest.failf "%s[%d]: analytic %.6g numeric %.6g" p.Param.name i analytic.(i)
              numeric)
        analytic)

let test_batched_gru_gradcheck () =
  let store = Param.create_store ~seed:61 () in
  let cell = Rnn_cell.create store "cell" ~dim_in:3 ~dim_hidden:4 in
  let rng = Rng.create 62 in
  let x1 = rand_arr rng 6 and x2 = rand_arr rng 6 in
  bgrad_check store (fun btape ->
      let steps =
        [
          (Batched.const_arr btape ~rows:2 ~cols:3 x1, None);
          (Batched.const_arr btape ~rows:2 ~cols:3 x2, Some [| 1.0; 0.0 |]);
        ]
      in
      sq_loss_batched btape (Rnn_cell.last_batch cell btape ~lanes:2 steps))

let test_batched_attention_gradcheck () =
  (* covers the split-projection path: the matmul_nt_slice,
     add_rows_cycle_bias_tanh and matvec_stack_cols backwards all
     participate in this gradient *)
  let store = Param.create_store ~seed:63 () in
  let att = Attention.create store "att" ~dim_h:3 ~dim_q:2 ~dim_att:4 in
  kick_attention_v store "att.v";
  let rng = Rng.create 64 in
  let q = rand_arr rng 4 in
  let slots = Array.init 3 (fun _ -> rand_arr rng 6) in
  bgrad_check store (fun btape ->
      let qn = Batched.const_arr btape ~rows:2 ~cols:2 q in
      let cands =
        Array.map (fun s -> Batched.const_arr btape ~rows:2 ~cols:3 s) slots
      in
      let mask = Tensor.create 2 3 in
      Tensor.fill mask 1.0;
      Tensor.set mask 1 2 0.0;
      sq_loss_batched btape (snd (Attention.fuse_batch att btape ~q:qn ~mask cands)))

let test_batched_treelstm_gradcheck () =
  let store = Param.create_store ~seed:65 () in
  let tl = Treelstm.create store "tl" ~dim_in:3 ~dim_hidden:3 in
  bgrad_check store (fun btape ->
      let roots =
        Treelstm.embed_forest tl btape
          ~embed:(fun labels ->
            Batched.const_arr btape ~rows:(Array.length labels) ~cols:3
              (Array.concat (Array.to_list (Array.map tok_vec labels))))
          trees
      in
      sq_loss_batched btape roots)

let test_batched_decoder_gradcheck () =
  let store, dec = make_decoder () in
  let rng = Rng.create 66 in
  let mems = Array.init 2 (fun _ -> rand_arr rng 10) in
  let progs = rand_arr rng 10 in
  bgrad_check ~tol:5e-3 store (fun btape ->
      let memory = Array.map (fun m -> Batched.const_arr btape ~rows:2 ~cols:5 m) mems in
      let mask = Tensor.create 2 2 in
      Tensor.fill mask 1.0;
      let losses =
        Decoder.loss_batch dec btape ~memory ~memory_mask:mask
          ~program_embedding:(Batched.const_arr btape ~rows:2 ~cols:5 progs)
          ~target_ids:[| [ 4 ]; [ 5; 6 ] |]
      in
      Batched.sum_all btape losses)

(* ------------------------------------------------------------------ *)
(* Full model and training loop                                        *)
(* ------------------------------------------------------------------ *)

let small_corpus =
  lazy
    (let enc =
       {
         Liger_core.Common.default_enc_config with
         Liger_core.Common.max_paths = 3;
         max_concrete = 2;
         max_steps = 10;
       }
     in
     Liger_dataset.Pipeline.build_naming ~enc_config:enc (Rng.create 4321)
       ~name:"batched-test" ~n:20)

(* [check_model_lanes name store loss_batch chunk]: each example's loss in
   the [chunk]-lane batch equals its loss alone, bit for bit, and the
   batch's gradient equals the sum of the one-lane gradients (up to float
   reassociation: shared rows accumulate in a different order). *)
let check_model_lanes name store loss_batch chunk =
  let alone =
    Array.map
      (fun ex ->
        let btape = Batched.tape () in
        let loss = loss_batch btape [| ex |] in
        let v = Batched.scalar_value loss in
        Batched.backward btape loss;
        v)
      chunk
  in
  let eg = store_grads store in
  Param.zero_grads store;
  let btape = Batched.tape () in
  let losses = loss_batch btape chunk in
  Array.iteri
    (fun l e ->
      if (Batched.row_value losses l).(0) <> e then
        Alcotest.failf "%s: lane %d loss differs in a %d-lane batch" name l (Array.length chunk))
    alone;
  Batched.backward btape (Batched.sum_all btape losses);
  let ag = store_grads store in
  Param.zero_grads store;
  check_grads ~tol:1e-9 name eg ag

let first_train n =
  Array.of_list (List.filteri (fun i _ -> i < n) (Lazy.force small_corpus).Liger_dataset.Pipeline.train)

let test_model_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let module LM = Liger_core.Liger_model in
  let _, model = Liger_eval.Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab LM.Naming in
  let chunk = first_train 4 in
  if Array.length chunk = 0 then Alcotest.fail "empty train split";
  check_model_lanes "liger" (LM.store model) (fun bt exs -> LM.loss_batch model bt exs) chunk

(* the baselines keep the same lane contract; the views cut DYPRO's lanes *)
let test_baselines_loss_batch_equiv () =
  let corpus = Lazy.force small_corpus in
  let module B = Liger_baselines in
  let module LM = Liger_core.Liger_model in
  let train = corpus.Liger_dataset.Pipeline.train in
  let chunk = first_train 4 in
  let d = B.Dypro.create corpus.Liger_dataset.Pipeline.vocab LM.Naming in
  let view = { Liger_core.Common.n_paths = 2; n_concrete = 2 } in
  check_model_lanes "dypro" (B.Dypro.store d) (fun bt exs -> B.Dypro.loss_batch d bt ~view exs) chunk;
  let v = Vocab.create () in
  List.iter (fun (ex : Liger_core.Common.enc_example) -> B.Code2seq.register v ex.Liger_core.Common.meth) train;
  Vocab.freeze v;
  let c = B.Code2seq.create v LM.Naming in
  check_model_lanes "code2seq" (B.Code2seq.store c) (B.Code2seq.loss_batch c) chunk;
  let v = Vocab.create () and labels = Vocab.create () in
  List.iter
    (fun (ex : Liger_core.Common.enc_example) -> B.Code2vec.register v ~labels ex.Liger_core.Common.meth)
    train;
  Vocab.freeze v;
  Vocab.freeze labels;
  let c = B.Code2vec.create v ~labels LM.Naming in
  check_model_lanes "code2vec" (B.Code2vec.store c) (B.Code2vec.loss_batch c) chunk

let test_batched_fit_deterministic () =
  let module Par = Liger_parallel.Parallel in
  let corpus = Lazy.force small_corpus in
  let module LM = Liger_core.Liger_model in
  let fit_with jobs =
    let saved = Par.jobs () in
    Fun.protect
      ~finally:(fun () ->
        Tensor.set_gemm_par_flops 4_000_000;
        Par.set_jobs saved)
      (fun () ->
        Par.set_jobs jobs;
        (* force every GEMM through the parallel dispatcher so the
           schedule-independence of the fixed row blocks is actually used *)
        Tensor.set_gemm_par_flops 0;
        let wrap, _ = Liger_eval.Zoo.liger ~vocab:corpus.Liger_dataset.Pipeline.vocab LM.Naming in
        let options =
          { Liger_eval.Train.default_options with
            Liger_eval.Train.epochs = 2;
            batch_size = 3;
            log = false;
          }
        in
        ignore
          (Liger_eval.Train.fit ~options (Rng.create 7) wrap
             ~train:corpus.Liger_dataset.Pipeline.train ~valid:[]);
        Param.fold wrap.Liger_eval.Train.store ~init:[] (fun acc p ->
            (p.Param.name, Tensor.to_array p.Param.value) :: acc))
  in
  let p1 = fit_with 1 in
  let p4 = fit_with 4 in
  List.iter
    (fun (name, a) ->
      let b = List.assoc name p4 in
      if a <> b then Alcotest.failf "batched fit diverges across pool sizes at %s" name)
    p1

let () =
  Alcotest.run "batched"
    [
      ( "gemm",
        [
          Alcotest.test_case "nt/nn/tn vs naive" `Quick test_gemm_vs_naive;
          Alcotest.test_case "sliced windows" `Quick test_gemm_slices;
          Alcotest.test_case "parallel bitwise" `Quick test_gemm_parallel_bitwise;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "stack_to_cols" `Quick test_stack_to_cols;
          Alcotest.test_case "add_rows_cycle" `Quick test_add_rows_cycle;
          Alcotest.test_case "bufpool reuse" `Quick test_bufpool_reuse;
        ] );
      ( "layer equivalence",
        [
          Alcotest.test_case "linear" `Quick test_linear_equiv;
          Alcotest.test_case "embedding" `Quick test_embedding_equiv;
          Alcotest.test_case "gru" `Quick test_gru_equiv;
          Alcotest.test_case "vanilla rnn" `Quick test_vanilla_equiv;
          Alcotest.test_case "lstm" `Quick test_lstm_equiv;
          Alcotest.test_case "attention" `Quick test_attention_equiv;
          Alcotest.test_case "treelstm" `Quick test_treelstm_equiv;
          Alcotest.test_case "decoder" `Quick test_decoder_equiv;
        ] );
      ( "masking",
        [
          Alcotest.test_case "padded lane zero grad" `Quick test_masked_step_zero_grad;
          Alcotest.test_case "dead softmax slot" `Quick test_masked_softmax_dead_slot;
          Alcotest.test_case "weight-0 xent rows" `Quick test_xent_zero_weight_rows;
        ] );
      ( "gradcheck",
        [
          Alcotest.test_case "gru (masked)" `Quick test_batched_gru_gradcheck;
          Alcotest.test_case "attention (split proj)" `Quick test_batched_attention_gradcheck;
          Alcotest.test_case "treelstm forest" `Quick test_batched_treelstm_gradcheck;
          Alcotest.test_case "decoder" `Slow test_batched_decoder_gradcheck;
        ] );
      ( "model",
        [
          Alcotest.test_case "loss_batch = loss per lane" `Quick test_model_loss_batch_equiv;
          Alcotest.test_case "fit deterministic across jobs" `Quick
            test_batched_fit_deterministic;
          Alcotest.test_case "baselines loss_batch = loss per lane" `Quick
            test_baselines_loss_batch_equiv;
        ] );
    ]
