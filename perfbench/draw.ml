(** Seeded Javagen draws stratified by template.

    Nearly all of a method's cost in the corpus pipeline is set by its
    template.  Over 400 methods drawn by {!Javagen.generate_item}, 95% of
    the variance of per-method filter time lay between templates, and one
    template (the Collatz loop, whose paths the solver mostly cannot
    satisfy) cost about 2.5 s a method against a mean of 0.11 s.  A
    uniform 60-method draw therefore swings from about 4 to 18 methods/s
    with the seed.

    {!Javagen.generate_item} picks a template uniformly and then a variant
    uniformly within it.  A stratified draw keeps exactly that mix in
    expectation but takes every template once per draw, so the seed no
    longer decides how many expensive templates a run meets.  The seed
    decides what Javagen leaves to chance within a template: the variant,
    the mutations and the name.  Each template sits in a fixed project
    (hence a fixed split and coding style).  The Table 1 drop reasons
    Javagen produces by chance (broken, tiny, external) are added as a
    fixed number of extra candidates in the default profile's
    proportions. *)

open Liger_lang
module Rng = Liger_tensor.Rng
module Javagen = Liger_dataset.Javagen
module Templates = Liger_dataset.Templates
module Filter = Liger_testgen.Filter

let templates = Array.of_list Templates.all
let n_templates = Array.length templates
let n_projects = Javagen.default_profile.Javagen.n_projects

(** The variant template [i] takes in pass [pass] of a run with [seed].
    The variants take turns from a seeded start, so over k passes a
    template with k variants meets each once: Javagen's uniform choice,
    without the chance that one run draws a costly variant more often
    than another. *)
let variant ~seed ~pass i =
  let variants = templates.(i).Templates.variants in
  let k = List.length variants in
  List.nth variants ((Rng.int (Rng.create ((seed * 7919) + i)) k + pass) mod k)

(* [Javagen.generate_item] with the template and variant fixed and no
   drop flags *)
let template_item rng ~variant i =
  let tpl = templates.(i) in
  let project = i mod n_projects in
  let meth = Javagen.parse_template variant.Templates.source in
  let meth =
    if Rng.bernoulli rng Javagen.default_profile.Javagen.p_adversarial_rename then
      Mutate.rename_uninformative (Mutate.variant ~rename:false rng meth)
    else Javagen.apply_style rng (Javagen.style_of_project project) meth
  in
  let meth = { meth with Ast.mname = Javagen.pick_name rng ~project tpl } in
  { Javagen.candidate = { Filter.meth; uses_external = false }; template = tpl;
    algo = variant.Templates.algo; project }

(* The default profile's drop rates over a draw of n_templates clean
   methods (about 63 candidates): broken 0.04 x 63 = 2.5, tiny
   0.05 x 0.96 x 63 = 3.0, external 0.06 x 57 = 3.4, each rounded. *)
let n_broken = 3
let n_tiny = 3
let n_external = 3

(** Round [round] of a run with [seed]: one candidate per template, in
    template order, then the broken, tiny and external candidates. *)
let corpus ~seed ~round rng =
  let clean = List.init n_templates (fun i -> template_item rng ~variant:(variant ~seed ~pass:round i) i) in
  let extra k algo meth =
    List.init k (fun _ ->
        let i = Rng.int rng n_templates in
        let it = template_item rng ~variant:(Rng.choose_list rng templates.(i).Templates.variants) i in
        let replaced meth = { it with Javagen.candidate = { Filter.meth; uses_external = false }; algo } in
        match meth with
        | `Broken -> replaced (Javagen.broken_method rng)
        | `Tiny -> replaced (Javagen.tiny_method rng)
        | `External ->
            { it with Javagen.candidate = { it.Javagen.candidate with Filter.uses_external = true } })
  in
  clean
  @ extra n_broken "broken" `Broken
  @ extra n_tiny "tiny" `Tiny
  @ extra n_external "external" `External

(** Methods a server accepts and can generate executions for: those that
    pass the corpus filter's static gates (the checks of
    {!Filter.classify} before test generation, in the same order). *)
let servable (m : Ast.meth) =
  Typecheck.is_well_typed m
  && Ast.stmt_count m >= Filter.min_statements
  &&
  let l = Liger_analysis.Lint.check m in
  let open Liger_analysis.Lint in
  l.uninit_uses = [] && l.nonterm_sids = [] && l.unreachable_sids = [] && l.div_by_zero_sids = []
  && l.dead_branch_sids = []

(** The (template, variant) slots of pass [pass]: every template once,
    with its {!variant} for the pass — Javagen's mix. *)
let template_slots ~seed pass = List.init n_templates (fun i -> (i, variant ~seed ~pass i))

(** Every variant of every template once, whatever the pass: a template
    weighs k/{!n_variants} for k variants instead of 1/{!n_templates},
    but no seed can leave a costly variant out. *)
let variant_slots ~seed:_ _ =
  List.concat
    (List.mapi (fun i tpl -> List.map (fun v -> (i, v)) tpl.Templates.variants) (Array.to_list templates))

let n_variants = List.length (variant_slots ~seed:0 0)

(** [n] distinct servable method sources, none of them in [avoid]:
    passes over [slots] (by default {!template_slots}), each pass in a
    seeded order, redrawing a method until it is servable and new.  Two
    sources are the same when their printed methods are. *)
let servable_sources ?(avoid = [||]) ?(slots = template_slots) ~seed n =
  let rng = Rng.create seed in
  let seen = Hashtbl.create 64 in
  Array.iter (fun s -> Hashtbl.replace seen s ()) avoid;
  let pass p =
    let order = Array.of_list (slots ~seed p) in
    Rng.shuffle rng order;
    Array.to_list order
    |> List.filter_map (fun (i, variant) ->
           let rec draw tries =
             if tries = 0 then None
             else
               let m = (template_item rng ~variant i).Javagen.candidate.Filter.meth in
               let src = Pretty.meth_to_string m in
               if Hashtbl.mem seen src || not (servable m) then draw (tries - 1)
               else begin
                 Hashtbl.replace seen src ();
                 Some src
               end
           in
           draw 20)
  in
  let rec go p acc =
    if List.length acc >= n then List.filteri (fun i _ -> i < n) acc else go (p + 1) (acc @ pass p)
  in
  Array.of_list (go 0 [])
