(* The BN254 (alt_bn128) curve parameters used by Circom/Snarkjs and by the
   Ethereum pairing precompiles — the setting the ZKDET paper evaluates in.

   Both fields are Fp64 instances: flat 4x64-bit limbs with the C
   Montgomery kernel.  Wire encodings are canonical big-endian integers,
   independent of the limb layout.  The instances stay exported as
   Fp_unboxed and Fr_unboxed for the field tests and microbenchmarks. *)

module Nat = Zkdet_num.Nat

(* Curve seed t: p and r are the standard BN polynomials evaluated at t. *)
let seed_decimal = "4965661367192848881"

let fp_modulus_decimal =
  "21888242871839275222246405745257275088696311157297823662689037894645226208583"

let fr_modulus_decimal =
  "21888242871839275222246405745257275088548364400416034343698204186575808495617"

module Fp_unboxed = Fp64.Make (struct
  let modulus_decimal = fp_modulus_decimal
end)

module Fr_unboxed = Fp64.Make (struct
  let modulus_decimal = fr_modulus_decimal
end)

(* The name of the one field implementation, as stamped into benchmark
   host fingerprints. *)
let backend_name = "unboxed64"

(** Base field of the curve (coordinates live here). *)
module Fp : Field_intf.S = Fp_unboxed

(** Scalar field (circuit values, polynomial coefficients live here). *)
module Fr = struct
  include (Fr_unboxed : Field_intf.S)

  (** [root_of_unity ~log2size] is a primitive [2^log2size]-th root of
      unity. Raises [Invalid_argument] beyond the field's 2-adicity, which
      is 28 for BN254's scalar field: FFT domains stop at 2^28, the bound
      the paper quotes for the Perpetual Powers of Tau ("circuits with up
      to 2^28 constraints"). *)
  let root_of_unity ~log2size =
    if log2size < 0 || log2size > two_adicity then
      invalid_arg "Bn254.Fr.root_of_unity: log2size out of range";
    let w = ref two_adic_root in
    for _ = 1 to two_adicity - log2size do
      w := sqr !w
    done;
    !w

  (** A small multiplicative element used as a coset shift; callers must
      check [shift^n <> 1] for their domain size [n] (we assert it in
      {!Zkdet_poly.Domain}). *)
  let coset_shift = of_int 7
end
