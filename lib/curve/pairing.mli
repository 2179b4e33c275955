(** The optimal ate pairing e : G1 x G2 -> GT on BN254 (the EIP-197
    [ecPairing] pairing).

    A Miller loop over the signed digits of 6u+2 with the two
    Frobenius-twisted closing additions, then the easy part of the final
    exponentiation and the u-based hard-part chain with cyclotomic
    squaring.  G2 points enter the loop only through their precomputed
    line coefficients ({!G2_prepared}); every entry point below prepares
    and then runs the one multi-Miller loop.  Bilinearity, order and
    non-degeneracy are property-tested. *)

module Fr = Zkdet_field.Bn254.Fr

(** The target group (the r-th roots of unity in Fp12). *)
module Gt : sig
  type t

  val one : t
  val equal : t -> t -> bool
  val is_one : t -> bool
  val mul : t -> t -> t
  val inv : t -> t
  val pow_nat : t -> Zkdet_num.Nat.t -> t
  val pow : t -> Fr.t -> t
  val to_bytes : t -> string
  val pp : Format.formatter -> t -> unit
end

(** A G2 point's Miller-loop line coefficients, in loop order.  They do
    not depend on the G1 argument, so a verifier with fixed G2 points (a
    Plonk key's [1]_2 and [tau]_2, Groth16's beta, gamma and delta)
    prepares them once and keeps them. *)
module G2_prepared : sig
  type t

  val of_g2 : G2.t -> t
  (** One projective pass over the loop, with one Fp2 inversion (to
      affine); the point at infinity prepares to a neutral entry. *)

  val is_zero : t -> bool
end

val multi_miller_loop : (G1.t * G2_prepared.t) list -> Fp12.t
(** The product of the pairs' Miller loops, sharing one Fp12 squaring per
    step.  Pairs with either side at infinity contribute 1. *)

val miller_loop : G1.t -> G2.t -> Fp12.t

val final_exponentiation : Fp12.t -> Gt.t
(** [f ^ final_exponent]; maps 0 to 0 (which is never the identity). *)

val final_exponent : Zkdet_num.Nat.t
(** The exponent {!final_exponentiation} computes: lambda (p^12 - 1) / r
    with lambda = 2u(6u^2 + 3u + 1), coprime to r.  Checked against the
    hard-part chain at module initialisation; exposed as a test oracle. *)

val pairing : G1.t -> G2.t -> Gt.t

val pairing_check : (G1.t * G2.t) list -> bool
(** [true] iff the product of pairings is the identity — the form used by
    KZG/Plonk verifiers (one multi-Miller loop, one final
    exponentiation). *)

val pairing_check_prepared : (G1.t * G2_prepared.t) list -> bool
(** {!pairing_check} over already prepared G2 points. *)
