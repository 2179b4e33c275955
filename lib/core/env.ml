(* Shared proving environment: one universal SRS (from the simulated
   ceremony or a local trusted setup) plus a cache of circuit-specific
   proving keys, keyed by a structural descriptor. Because Plonk's setup is
   universal (§VI-B.1), the SRS is generated once and every circuit below
   its size bound reuses it. *)

module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Cs = Zkdet_plonk.Cs

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
}

(** [create ~log2_max_gates ()] runs the (simulated) universal setup for
    circuits of up to [2^log2_max_gates] constraints. *)
let create ?(log2_max_gates = 12) ?(seed = [| 0xd47a |]) () =
  let rng = Random.State.make seed in
  let srs = Srs.unsafe_generate ~st:rng ~size:((1 lsl log2_max_gates) + 8) () in
  { srs; pk_cache = Hashtbl.create 16; rng }

(** [sized_for builds] runs the universal setup at the smallest size that
    preprocesses every circuit the [builds] synthesize (each is compiled
    once here to count its gates). *)
let sized_for ?seed (builds : (unit -> Cs.t) list) =
  let gates =
    List.fold_left (fun m build -> max m (Cs.num_gates (Cs.compile (build ())))) 0 builds
  in
  let rec log2_ceil l = if 1 lsl l >= gates then l else log2_ceil (l + 1) in
  create ~log2_max_gates:(log2_ceil 1) ?seed ()

(** [proving_key env ~descriptor ~build] returns the cached proving key
    for the circuit family identified by [descriptor], running [build]
    (with representative dummy inputs) and preprocessing on a miss. *)
let proving_key (env : t) ~(descriptor : string) ~(build : unit -> Cs.t) :
    Preprocess.proving_key =
  match Hashtbl.find_opt env.pk_cache descriptor with
  | Some pk -> pk
  | None ->
    let compiled = Cs.compile (build ()) in
    let pk = Preprocess.setup env.srs compiled in
    Hashtbl.add env.pk_cache descriptor pk;
    pk

let verification_key (env : t) ~descriptor ~build =
  (proving_key env ~descriptor ~build).Preprocess.vk
