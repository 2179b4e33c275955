(** Shared proving environment: one universal SRS plus a cache of
    circuit-specific proving keys keyed by structural descriptors.
    Plonk's setup is universal (§VI-B.1): the SRS is generated once and
    every circuit below its size bound reuses it. *)

module Srs = Zkdet_kzg.Srs
module Preprocess = Zkdet_plonk.Preprocess
module Cs = Zkdet_plonk.Cs

type t = {
  srs : Srs.t;
  pk_cache : (string, Preprocess.proving_key) Hashtbl.t;
  rng : Random.State.t;
}

val create : ?log2_max_gates:int -> ?seed:int array -> unit -> t
(** Run the (simulated) universal setup for circuits of up to
    [2^log2_max_gates] constraints (default 2^12). *)

val sized_for : ?seed:int array -> (unit -> Cs.t) list -> t
(** {!create} at the smallest size whose SRS preprocesses every circuit
    the given builders synthesize. *)

val proving_key :
  t -> descriptor:string -> build:(unit -> Cs.t) -> Preprocess.proving_key
(** Cached proving key for the circuit family named by [descriptor];
    [build] synthesizes the circuit with representative dummy inputs on a
    cache miss. *)

val verification_key :
  t -> descriptor:string -> build:(unit -> Cs.t) -> Preprocess.verification_key
