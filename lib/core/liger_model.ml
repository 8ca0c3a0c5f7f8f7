(** LiGer: the blended neural program-embedding model (§5).

    The encoder follows Figure 5 layer by layer:

    - {e Vocabulary embedding}: one table over D_s ∪ D_d ({!Embedding_layer}).
    - {e Fusion}: per blended-trace step, a TreeLSTM embeds the statement
      (static dimension), RNN f1 embeds each composite variable value and
      RNN f2 each program state (dynamic dimension); attention a1 —
      conditioned on the running trace embedding H^e_{i,j-1} — fuses the
      feature vectors into one step embedding h_{i,j}.  The first step uses
      even weights, as in the paper.
    - {e Executions embedding}: RNN f3 folds the step embeddings into
      H^e_{i,j}; the final state represents the whole blended trace.
    - {e Programs embedding}: max-pooling over all blended traces yields
      H_P.

    For method-name prediction a decoder attends over the flow of all
    blended traces ({!Liger_nn.Decoder}); for semantics classification the
    decoder is replaced by a linear layer + softmax (§6.2).

    The ablation switches of §6.3 are first-class: [use_static = false]
    removes the statement component, [use_dynamic = false] gives statements
    the full fusion weight, and [use_attention = false] distributes fusion
    weights evenly. *)

open Liger_tensor
open Liger_trace
open Liger_nn

type task = Naming | Classify of int

type config = {
  dim : int;                 (* hidden size = embedding size *)
  use_static : bool;
  use_dynamic : bool;
  use_attention : bool;
  state_cell : Rnn_cell.kind;  (* f1/f2; vanilla, as in the paper *)
  trace_cell : Rnn_cell.kind;  (* f3; GRU by default for trainability *)
}

let default_config =
  {
    dim = 16;
    use_static = true;
    use_dynamic = true;
    use_attention = true;
    state_cell = Rnn_cell.Vanilla;
    trace_cell = Rnn_cell.Gru;
  }

type t = {
  config : config;
  store : Param.store;
  vocab : Vocab.t;
  embedding : Embedding_layer.t;
  treelstm : Treelstm.t option;
  f1 : Rnn_cell.t option;
  f2 : Rnn_cell.t option;
  fusion : Attention.t option;
  f3 : Rnn_cell.t;
  decoder : Decoder.t option;
  classifier : Linear.t option;
}

let create ?(config = default_config) ?(seed = 7) vocab task =
  if not (config.use_static || config.use_dynamic) then
    invalid_arg "Liger_model.create: at least one feature dimension required";
  let store = Param.create_store ~seed () in
  let d = config.dim in
  let embedding = Embedding_layer.create store "vocab" vocab ~dim:d in
  let treelstm =
    if config.use_static then Some (Treelstm.create store "sta" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let f1 =
    if config.use_dynamic then
      Some (Rnn_cell.create ~kind:config.state_cell store "f1" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let f2 =
    if config.use_dynamic then
      Some (Rnn_cell.create ~kind:config.state_cell store "f2" ~dim_in:d ~dim_hidden:d)
    else None
  in
  let fusion =
    if config.use_attention && config.use_static && config.use_dynamic then
      Some (Attention.create store "a1" ~dim_h:d ~dim_q:d ~dim_att:d)
    else None
  in
  let f3 = Rnn_cell.create ~kind:config.trace_cell store "f3" ~dim_in:d ~dim_hidden:d in
  let decoder, classifier =
    match task with
    | Naming -> (Some (Decoder.create store "dec" embedding ~dim_hidden:d ~dim_mem:d), None)
    | Classify n -> (None, Some (Linear.create store "cls" ~dim_in:d ~dim_out:n))
  in
  { config; store; vocab; embedding; treelstm; f1; f2; fusion; f3; decoder; classifier }

let store t = t.store
let vocab t = t.vocab
let num_params t = Param.num_params t.store

(** Per-encode diagnostics: average fusion attention allocated to the static
    feature vector (§6.1.2 reports ~0.598). *)
type stats = { mutable static_weight_sum : float; mutable fused_steps : int }

let mean_static_weight s =
  if s.fused_steps = 0 then Float.nan
  else s.static_weight_sum /. float_of_int s.fused_steps

(* ===== Encoding (flat Bigarray engine; see DESIGN.md) =====

   One batched tape encodes a whole mini-batch: trace lanes across all
   examples run fusion + f3 in lockstep with length-masked padding,
   statement trees are deduplicated batch-wide by [memo_key] and embedded
   as one level-packed forest, and f1/f2 pack every composite variable /
   program state in the batch into single padded recurrences.  Padded
   lanes/steps/slots carry exactly zero gradient (masked updates,
   weight-0 losses), and every row is computed from its own inputs only,
   so an example's results are bitwise the same alone or in any batch. *)

type batch_encoding = {
  benc_prog : Batched.node;          (* G × d program embeddings *)
  benc_mem : Batched.node array;     (* maxM nodes of G × d: decoder memory slots *)
  benc_mem_mask : Tensor.t;          (* G × maxM slot validity *)
}

(* Final states of [cell] over ragged sequences run as lanes in lockstep:
   lane [l] has [lengths.(l)] elements and [input v] is the input of step
   [v] (any row for a lane already past its end, whose state the masked
   update keeps).  A lane of length 0 ends at the initial state. *)
let last_ragged cell btape ~lengths ~input =
  let max_len = Array.fold_left Stdlib.max 0 lengths in
  Rnn_cell.last_batch cell btape ~lanes:(Array.length lengths)
    (List.init max_len (fun v ->
         (input v, Some (Array.map (fun n -> if v < n then 1.0 else 0.0) lengths))))

(* [intern tbl acc key v]: the dense id of [key]; on first sight it gets
   the next id and [v] is consed onto [acc] (so [List.rev !acc] lists the
   interned values in id order). *)
let intern tbl acc key v =
  match Hashtbl.find_opt tbl key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl key i;
      acc := v :: !acc;
      i

(** Embed variable values (token arrays) as the rows of one node: a
    one-token value is its token's embedding, a longer one the final state
    of [f1] over its tokens (Equation 3).  Values are deduplicated by
    content, composites first.  Returns the node ([None] when [values] is
    empty) and the row of each value. *)
let embed_values embedding f1 btape (values : int array array) =
  let comp_tbl = Hashtbl.create 64 and sing_tbl = Hashtbl.create 64 in
  let comps = ref [] and sings = ref [] in
  let slots =
    Array.map
      (fun tokens ->
        if Array.length tokens = 1 then Either.Right (intern sing_tbl sings tokens.(0) tokens.(0))
        else Either.Left (intern comp_tbl comps tokens tokens))
      values
  in
  let comps = Array.of_list (List.rev !comps) and sings = Array.of_list (List.rev !sings) in
  let f1_rows =
    if comps = [||] then []
    else
      [
        last_ragged f1 btape ~lengths:(Array.map Array.length comps) ~input:(fun v ->
            Embedding_layer.embed_ids embedding btape
              (Array.map (fun a -> if v < Array.length a then a.(v) else 0) comps));
      ]
  in
  let sing_rows = if sings = [||] then [] else [ Embedding_layer.embed_ids embedding btape sings ] in
  let n_comp = Array.length comps in
  let rows = Array.map (function Either.Left c -> c | Either.Right s -> n_comp + s) slots in
  match f1_rows @ sing_rows with
  | [] -> (None, rows)
  | [ x ] -> (Some x, rows)
  | xs -> (Some (Batched.vstack btape xs), rows)

(** The rows each group owns in the concatenation of groups of sizes
    [lens]: group [g] owns rows [off_g .. off_g + lens.(g) - 1]. *)
let segment_rows lens =
  let off = ref 0 in
  Array.map
    (fun n ->
      let rows = Array.init n (fun i -> !off + i) in
      off := !off + n;
      rows)
    lens

(** Decoder memory slots: slot [m] of example [g] is row [rows.(g).(m)] of
    [all]; slots past an example's own count are padding (mask 0).  Every
    example gets at least one slot. *)
let memory_slots btape all (rows : int array array) =
  let g_n = Array.length rows in
  let max_m = Array.fold_left (fun acc r -> Stdlib.max acc (Array.length r)) 1 rows in
  let mask = Tensor.zeros g_n max_m in
  let slots =
    Array.init max_m (fun m ->
        Batched.gather_rows btape all
          (Array.init g_n (fun g ->
               if m < Array.length rows.(g) then begin
                 Tensor.set mask g m 1.0;
                 rows.(g).(m)
               end
               else 0)))
  in
  (slots, mask)

(** The encoding of trace lanes run in lockstep: [steps.(j)] holds every
    lane's state after step [j], lane [l] belongs to example [lane_ex.(l)]
    and lasts [n_steps.(l)] steps.  The program embedding max-pools each
    example's final lane states (an example without lanes gets a zero
    row); the decoder memory is the flow of its lanes' steps, in (lane,
    step) order (§5.1.2). *)
let trace_encoding btape ~d ~g_n ~lane_ex ~n_steps ~(final : Batched.node option) steps =
  let zeros () = Batched.zeros btape ~rows:g_n ~cols:d in
  let benc_prog =
    match final with
    | Some h -> Batched.group_max btape h ~groups:lane_ex ~n_groups:g_n
    | None -> zeros ()
  in
  let benc_mem, benc_mem_mask =
    match steps with
    | [] -> ([| zeros () |], Tensor.zeros g_n 1)
    | _ ->
        let l_n = Array.length lane_ex in
        let rows = Array.make g_n [] in
        for l = 0 to l_n - 1 do
          for j = 0 to n_steps.(l) - 1 do
            rows.(lane_ex.(l)) <- ((j * l_n) + l) :: rows.(lane_ex.(l))
          done
        done;
        memory_slots btape (Batched.vstack btape steps)
          (Array.map (fun r -> Array.of_list (List.rev r)) rows)
  in
  { benc_prog; benc_mem; benc_mem_mask }

(* Post-order flatten a deduplicated batch of interned trees: children
   always get smaller indices than their parent. *)
let flatten_itrees (trees : Common.itree array) =
  let labels_rev = ref [] and children_rev = ref [] in
  let count = ref 0 in
  let rec go tree =
    let id, sub =
      match tree with
      | Common.ILeaf id -> (id, [])
      | Common.INode (id, cs) -> (id, cs)
    in
    let cidx = List.map go sub in
    let idx = !count in
    incr count;
    labels_rev := id :: !labels_rev;
    children_rev := cidx :: !children_rev;
    idx
  in
  let roots = Array.map go trees in
  (Array.of_list (List.rev !labels_rev), Array.of_list (List.rev !children_rev), roots)

let new_stats () = { static_weight_sum = 0.0; fused_steps = 0 }

let encode_batch t btape ~view ~stats (exs : Common.enc_example array) =
  let d = t.config.dim in
  let g_n = Array.length exs in
  if g_n = 0 then invalid_arg "Liger_model.encode_batch: empty batch";
  (* Trace lanes, grouped by example in order. *)
  let lanes =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun g ex -> Array.map (fun tr -> (g, tr)) (Common.select_traces view ex))
            exs))
  in
  let lane_ex = Array.map fst lanes and lane_tr = Array.map snd lanes in
  let l_n = Array.length lane_tr in
  let n_steps =
    Array.map (fun (tr : Common.enc_trace) -> Array.length tr.Common.steps) lane_tr
  in
  let max_s = Array.fold_left Stdlib.max 0 n_steps in
  let n_conc =
    Array.map
      (fun tr -> if t.config.use_dynamic then Common.select_concrete view tr else 0)
      lane_tr
  in
  let max_c = Array.fold_left Stdlib.max 0 n_conc in
  if l_n = 0 then trace_encoding btape ~d ~g_n ~lane_ex ~n_steps ~final:None []
  else begin
  (* --- static: batch-wide tree dedup + one level-packed forest --- *)
  let tree_roots, tree_of =
    if (not t.config.use_static) || max_s = 0 then (None, [||])
    else begin
      let memo = Hashtbl.create 64 and trees_rev = ref [] in
      let tree_of =
        Array.map
          (fun (tr : Common.enc_trace) ->
            Array.map
              (fun (step : Common.enc_step) ->
                intern memo trees_rev step.Common.memo_key step.Common.tree)
              tr.Common.steps)
          lane_tr
      in
      let labels, children, roots = flatten_itrees (Array.of_list (List.rev !trees_rev)) in
      let embed ids = Embedding_layer.embed_ids t.embedding btape ids in
      ( Some
          (Treelstm.embed_forest_flat (Option.get t.treelstm) btape ~embed ~labels ~children
             ~roots),
        tree_of )
    end
  in
  (* --- dynamic: pack every distinct program state.  States are
     deduplicated batch-wide by content (consecutive steps and sibling
     executions repeat most variable values); identical states share one
     f2 lane and their gradients sum through the gather. --- *)
  let state_tbl = Hashtbl.create 256 and states_rev = ref [] in
  let state_idx =
    Array.init l_n (fun l ->
        Array.init n_steps.(l) (fun j ->
            Array.init n_conc.(l) (fun k ->
                let vars = lane_tr.(l).Common.steps.(j).Common.var_tokens.(k) in
                intern state_tbl states_rev vars vars)))
  in
  let state_vars = Array.of_list (List.rev !states_rev) in
  let state_vecs =
    if (not t.config.use_dynamic) || state_vars = [||] then None
    else begin
      let src, rows =
        embed_values t.embedding (Option.get t.f1) btape
          (Array.concat (Array.to_list state_vars))
      in
      (* f2 over each state's variables in their fixed order *)
      let var_row = segment_rows (Array.map Array.length state_vars) in
      Some
        (last_ragged (Option.get t.f2) btape
           ~lengths:(Array.map Array.length state_vars)
           ~input:(fun v ->
             Batched.gather_rows btape (Option.get src)
               (Array.mapi
                  (fun s vars -> if v < Array.length vars then rows.(var_row.(s).(v)) else 0)
                  state_vars)))
    end
  in
  (* --- fusion + trace recurrence f3, trace lanes in lockstep --- *)
  let k_static = if t.config.use_static && max_s > 0 then 1 else 0 in
  let k_dynamic = if state_vecs = None then 0 else max_c in
  let k_total = k_static + k_dynamic in
  let h_trace = ref (Rnn_cell.init_state_batch t.f3 btape ~lanes:l_n) in
  let mem_nodes_rev = ref [] in
  for j = 0 to max_s - 1 do
    let step_valid l = j < n_steps.(l) in
    let step_mask = Array.init l_n (fun l -> if step_valid l then 1.0 else 0.0) in
    (* candidate k of lane l: (row index, valid) *)
    let column valid row = (Array.init l_n (fun l -> if valid l then row l else 0), valid) in
    let columns =
      (if k_static = 1 then [ (Option.get tree_roots, column step_valid (fun l -> tree_of.(l).(j))) ]
       else [])
      @ List.init k_dynamic (fun k ->
            ( Option.get state_vecs,
              column
                (fun l -> step_valid l && k < n_conc.(l))
                (fun l -> state_idx.(l).(j).(k)) ))
    in
    if k_total = 0 then invalid_arg "Liger_model.encode_batch: no feature vectors";
    let cands =
      Array.of_list (List.map (fun (src, (idx, _)) -> Batched.gather_rows btape src idx) columns)
    in
    let cmask = Tensor.zeros l_n k_total in
    let n_valid = Array.make l_n 0 in
    List.iteri
      (fun k (_, (_, valid)) ->
        for l = 0 to l_n - 1 do
          if valid l then begin
            Tensor.set cmask l k 1.0;
            n_valid.(l) <- n_valid.(l) + 1
          end
        done)
      columns;
    let h_j =
      if k_total = 1 then cands.(0)
      else
        match t.fusion with
        | Some att when j > 0 && t.config.use_attention ->
            let w, fused = Attention.fuse_batch att btape ~q:!h_trace ~mask:cmask cands in
            if t.config.use_static then begin
              let wv = Batched.value w in
              for l = 0 to l_n - 1 do
                if step_valid l && n_valid.(l) > 1 then begin
                  stats.static_weight_sum <- stats.static_weight_sum +. Tensor.get wv l 0;
                  stats.fused_steps <- stats.fused_steps + 1
                end
              done
            end;
            fused
        | _ -> snd (Attention.fuse_uniform_batch btape ~mask:cmask cands)
    in
    h_trace := Rnn_cell.step_batch ~mask:step_mask t.f3 btape ~h:!h_trace ~x:h_j;
    mem_nodes_rev := !h_trace :: !mem_nodes_rev
  done;
  trace_encoding btape ~d ~g_n ~lane_ex ~n_steps ~final:(Some !h_trace)
    (List.rev !mem_nodes_rev)
  end

(* ===== Heads, shared by every model of the zoo ===== *)

(** A model's output for one example. *)
type prediction = Subtokens of string list | Class of int

(** Per-example losses of an encoded batch as a [G×1] node: the
    teacher-forced decoder NLL of [target_ids ex] for naming, the
    cross-entropy of the example's single target id for classification. *)
let head_losses btape ~decoder ~classifier enc ~target_ids (exs : Common.enc_example array) =
  match (decoder, classifier) with
  | Some dec, _ ->
      Decoder.loss_batch dec btape ~memory:enc.benc_mem ~memory_mask:enc.benc_mem_mask
        ~program_embedding:enc.benc_prog ~target_ids:(Array.map target_ids exs)
  | None, Some cls ->
      let logits = Linear.forward_batch cls btape enc.benc_prog in
      let targets =
        Array.map
          (fun (ex : Common.enc_example) ->
            match ex.Common.target_ids with
            | [ c ] -> c
            | _ -> invalid_arg "head_losses: classification target must be one class")
          exs
      in
      fst
        (Batched.softmax_xent_rows btape logits ~targets
           ~weights:(Array.make (Array.length exs) 1.0))
  | None, None -> invalid_arg "head_losses: model without a head"

(** Greedy predictions of an encoded batch: decoded sub-tokens (named
    through [vocab]) or the argmax class. *)
let head_predictions btape ~decoder ~classifier ~vocab enc =
  match (decoder, classifier) with
  | Some dec, _ ->
      Decoder.decode_batch dec btape ~memory:enc.benc_mem ~memory_mask:enc.benc_mem_mask
        ~program_embedding:enc.benc_prog
      |> Array.map (fun ids -> Subtokens (List.map (Vocab.name vocab) ids))
  | None, Some cls ->
      let logits = Linear.forward_batch cls btape enc.benc_prog in
      Array.init (Batched.lanes logits) (fun g -> Class (Tensor.argmax (Batched.row_value logits g)))
  | None, None -> invalid_arg "head_predictions: model without a head"

(** [with_tape f] runs [f] on a fresh tape and releases it afterwards
    (inference: [f] copies out what it returns). *)
let with_tape f =
  let btape = Batched.tape () in
  Fun.protect ~finally:(fun () -> Batched.discard btape) (fun () -> f btape)

(** Mean vector per statement id, in id order: [sids.(m)] is the statement
    memory slot [m] executes and [vec m] that slot's vector. *)
let mean_by_statement sids vec =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun m sid ->
      let v = vec m in
      match Hashtbl.find_opt tbl sid with
      | Some (sum, n) ->
          Array.iteri (fun i x -> sum.(i) <- sum.(i) +. x) v;
          Hashtbl.replace tbl sid (sum, n + 1)
      | None -> Hashtbl.add tbl sid (Array.copy v, 1))
    sids;
  Hashtbl.fold
    (fun sid (sum, n) acc -> (sid, Array.map (fun x -> x /. float_of_int n) sum) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ===== LiGer entry points ===== *)

(** Training loss over a mini-batch: per-example losses as a [G×1] node
    on [btape]. *)
let loss_batch t btape ?(view = Common.full_view) (exs : Common.enc_example array) =
  let enc = encode_batch t btape ~view ~stats:(new_stats ()) exs in
  head_losses btape ~decoder:t.decoder ~classifier:t.classifier enc
    ~target_ids:(fun (ex : Common.enc_example) -> ex.Common.target_ids)
    exs

(** Program embeddings: one forward over a [G]-lane batch, one vector per
    example.  This is the serving entry point ([liger serve]): the forward
    deduplicates trees/states and gathers exact rows, so each lane's
    vector is bitwise identical whether the example is embedded alone or
    inside a larger batch — the property the request coalescer's equality
    test pins down. *)
let embed_programs t ?(view = Common.full_view) (exs : Common.enc_example array) =
  if Array.length exs = 0 then [||]
  else
    with_tape (fun btape ->
        let enc = encode_batch t btape ~view ~stats:(new_stats ()) exs in
        Array.init (Array.length exs) (fun g -> Batched.row_value enc.benc_prog g))

(** Greedy predictions, one per example: decoded sub-tokens for naming,
    the argmax class for classification. *)
let predict_batch t ?(view = Common.full_view) (exs : Common.enc_example array) =
  if Array.length exs = 0 then [||]
  else
    with_tape (fun btape ->
        head_predictions btape ~decoder:t.decoder ~classifier:t.classifier ~vocab:t.vocab
          (encode_batch t btape ~view ~stats:(new_stats ()) exs))

(** Fusion statistics of one forward over [exs] (§6.1.2's attention
    inspection). *)
let fusion_stats t ?(view = Common.full_view) (exs : Common.enc_example array) =
  with_tape (fun btape ->
      let stats = new_stats () in
      ignore (encode_batch t btape ~view ~stats exs);
      stats)

(** Frozen per-statement embeddings for the probing readouts
    ({!Liger_eval.Probe}): for each statement id, the mean of every step
    embedding H^e_{i,j} whose blended-trace step executes that statement,
    over all traces the view exposes.  Returns [(sid, vector)] pairs in
    statement-id order. *)
let statement_embeddings t ?(view = Common.full_view) (ex : Common.enc_example) =
  with_tape (fun btape ->
      let enc = encode_batch t btape ~view ~stats:(new_stats ()) [| ex |] in
      (* memory slot m is the m-th (trace, step) in order *)
      let sids =
        Array.concat
          (List.map
             (fun (tr : Common.enc_trace) ->
               Array.map (fun (s : Common.enc_step) -> s.Common.memo_key lsr 1) tr.Common.steps)
             (Array.to_list (Common.select_traces view ex)))
      in
      mean_by_statement sids (fun m -> Batched.row_value enc.benc_mem.(m) 0))
