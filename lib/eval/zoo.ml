(** Wrapping every model behind the uniform {!Train.model} interface.

    A wrapper fixes the model's {e view} — how many symbolic traces and how
    many concrete traces per trace it may see — at construction; the
    down-sampling experiments build one wrapper per point, so reduction
    applies to training {e and} testing, as in §6.1.2.  Static baselines
    build their own vocabularies from the raw training sources. *)

open Liger_trace
open Liger_core
open Liger_baselines

(** LiGer (optionally ablated).  Returns the wrapper and the model itself
    (the attention-inspection experiment needs the latter). *)
let liger ?(config = Liger_model.default_config) ?(view = Common.full_view) ?seed ~vocab task =
  let model = Liger_model.create ~config ?seed vocab task in
  let name =
    match (config.use_static, config.use_dynamic, config.use_attention) with
    | true, true, true -> "LiGer"
    | false, true, _ -> "LiGer-nostatic"
    | true, false, _ -> "LiGer-nodynamic"
    | true, true, false -> "LiGer-noattention"
    | _ -> "LiGer-custom"
  in
  ( Train.make ~name ~store:(Liger_model.store model)
      ~loss_batch:(fun btape exs -> Liger_model.loss_batch model btape ~view exs)
      ~predict_batch:(Liger_model.predict_batch model ~view)
      ~embed:(Liger_model.embed_programs model ~view) (),
    model )

(** DYPRO.  Returns the wrapper and the model itself (probing needs the
    latter's frozen encoder). *)
let dypro ?(dim = 16) ?(view = Common.full_view) ?seed ~vocab task =
  let model = Dypro.create ~dim ?seed vocab task in
  ( Train.make ~name:"DYPRO" ~store:(Dypro.store model)
      ~loss_batch:(fun btape exs -> Dypro.loss_batch model btape ~view exs)
      ~predict_batch:(Dypro.predict_batch model ~view)
      ~embed:(Dypro.embed_programs model ~view) (),
    model )

(** code2vec; builds its own token and label vocabularies from [train]. *)
let code2vec ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () and labels = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2vec.register vocab ~labels ex.Common.meth) train;
  Vocab.freeze vocab;
  Vocab.freeze labels;
  let model = Code2vec.create ~dim ?seed vocab ~labels task in
  Train.make ~name:"code2vec" ~store:(Code2vec.store model)
    ~loss_batch:(Code2vec.loss_batch model) ~predict_batch:(Code2vec.predict_batch model) ()

(** code2seq; builds its own vocabulary from [train]. *)
let code2seq ?(dim = 16) ?seed ~train task =
  let vocab = Vocab.create () in
  List.iter (fun (ex : Common.enc_example) -> Code2seq.register vocab ex.Common.meth) train;
  Vocab.freeze vocab;
  let model = Code2seq.create ~dim ?seed vocab task in
  Train.make ~name:"code2seq" ~store:(Code2seq.store model)
    ~loss_batch:(Code2seq.loss_batch model) ~predict_batch:(Code2seq.predict_batch model) ()
