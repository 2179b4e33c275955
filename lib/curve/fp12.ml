(* Fp12 = Fp6[w] / (w^2 - v). Target group of the pairing. *)

module Nat = Zkdet_num.Nat

type t = { c0 : Fp6.t; c1 : Fp6.t }

let make c0 c1 = { c0; c1 }
let zero = { c0 = Fp6.zero; c1 = Fp6.zero }
let one = { c0 = Fp6.one; c1 = Fp6.zero }
let of_fp6 c0 = { c0; c1 = Fp6.zero }
let of_fp c = of_fp6 (Fp6.of_fp2 (Fp2.of_fp c))

let equal a b = Fp6.equal a.c0 b.c0 && Fp6.equal a.c1 b.c1
let is_zero a = equal a zero
let is_one a = equal a one

let add a b = { c0 = Fp6.add a.c0 b.c0; c1 = Fp6.add a.c1 b.c1 }
let sub a b = { c0 = Fp6.sub a.c0 b.c0; c1 = Fp6.sub a.c1 b.c1 }
let neg a = { c0 = Fp6.neg a.c0; c1 = Fp6.neg a.c1 }

let mul a b =
  (* Karatsuba with w^2 = v. *)
  let v0 = Fp6.mul a.c0 b.c0 in
  let v1 = Fp6.mul a.c1 b.c1 in
  let s = Fp6.mul (Fp6.add a.c0 a.c1) (Fp6.add b.c0 b.c1) in
  { c0 = Fp6.add v0 (Fp6.mul_by_v v1); c1 = Fp6.sub (Fp6.sub s v0) v1 }

(* Complex squaring: (a0 + a1 w)^2 = (a0^2 + v a1^2) + 2 a0 a1 w with two
   Fp6 multiplications, via (a0 + a1)(a0 + v a1) = a0^2 + v a1^2 + (1 + v) a0 a1. *)
let sqr a =
  let t = Fp6.mul a.c0 a.c1 in
  let s = Fp6.mul (Fp6.add a.c0 a.c1) (Fp6.add a.c0 (Fp6.mul_by_v a.c1)) in
  { c0 = Fp6.sub (Fp6.sub s t) (Fp6.mul_by_v t); c1 = Fp6.double t }

(* [mul_by_034 a c0 c3 c4] multiplies by the sparse element
   c0 + (c3 + c4 v) w, the shape of a D-twist line evaluated at a G1 point:
   13 Fp2 multiplications instead of 18. *)
let mul_by_034 a (c0 : Fp2.t) (c3 : Fp2.t) (c4 : Fp2.t) =
  let x = Fp6.scale_fp2 a.c0 c0 in
  let y = Fp6.mul_by_01 a.c1 c3 c4 in
  let s = Fp6.mul_by_01 (Fp6.add a.c0 a.c1) (Fp2.add c0 c3) c4 in
  { c0 = Fp6.add x (Fp6.mul_by_v y); c1 = Fp6.sub s (Fp6.add x y) }

(* Granger-Scott squaring, valid only in the cyclotomic subgroup (the
   elements with a^(p^4 - p^2 + 1) = 1, where the final exponentiation's
   hard part runs): 6 Fp2 multiplications.  Fp12 is viewed as
   Fp4^3 with Fp4 = Fp2[s]/(s^2 - xi); [fp4_sqr x y] squares x + y s. *)
let cyclotomic_sqr a =
  let fp4_sqr x y =
    let t = Fp2.mul x y in
    ( Fp2.sub
        (Fp2.sub (Fp2.mul (Fp2.add x y) (Fp2.add (Fp2.mul_by_xi y) x)) t)
        (Fp2.mul_by_xi t),
      Fp2.double t )
  in
  let r0 = a.c0.Fp6.c0 and r4 = a.c0.Fp6.c1 and r3 = a.c0.Fp6.c2 in
  let r2 = a.c1.Fp6.c0 and r1 = a.c1.Fp6.c1 and r5 = a.c1.Fp6.c2 in
  let t0, t1 = fp4_sqr r0 r1 in
  let t2, t3 = fp4_sqr r2 r3 in
  let t4, t5 = fp4_sqr r4 r5 in
  (* z = 3t -+ 2r, computed as 2(t -+ r) + t. *)
  let minus t r = Fp2.add (Fp2.double (Fp2.sub t r)) t in
  let plus t r = Fp2.add (Fp2.double (Fp2.add t r)) t in
  {
    c0 = Fp6.make (minus t0 r0) (minus t2 r4) (minus t4 r3);
    c1 = Fp6.make (plus (Fp2.mul_by_xi t5) r2) (plus t1 r1) (plus t3 r5);
  }

let scale_fp a k = { c0 = Fp6.scale_fp a.c0 k; c1 = Fp6.scale_fp a.c1 k }

let inv a =
  (* (a0 + a1 w)^-1 = (a0 - a1 w) / (a0^2 - v a1^2) *)
  let norm = Fp6.sub (Fp6.sqr a.c0) (Fp6.mul_by_v (Fp6.sqr a.c1)) in
  let ninv = Fp6.inv norm in
  { c0 = Fp6.mul a.c0 ninv; c1 = Fp6.neg (Fp6.mul a.c1 ninv) }

(* Conjugation over Fp6 = the p^6 Frobenius (cheap). *)
let conj a = { a with c1 = Fp6.neg a.c1 }

(* Frobenius: w^p = gamma_w w with gamma_w = xi^((p-1)/6) in Fp2. *)
let gamma_w =
  Fp2.pow_nat Fp2.xi (Nat.div (Nat.sub Fp2.Fp.modulus Nat.one) (Nat.of_int 6))

let frobenius a =
  { c0 = Fp6.frobenius a.c0; c1 = Fp6.scale_fp2 (Fp6.frobenius a.c1) gamma_w }

let pow_nat x e =
  let nbits = Nat.num_bits e in
  if nbits = 0 then one
  else begin
    let acc = ref one in
    for i = nbits - 1 downto 0 do
      acc := sqr !acc;
      if Nat.testbit e i then acc := mul !acc x
    done;
    !acc
  end

let random st = { c0 = Fp6.random st; c1 = Fp6.random st }

let to_bytes a = Fp6.to_bytes a.c0 ^ Fp6.to_bytes a.c1

let pp fmt a = Format.fprintf fmt "{%a; %a}" Fp6.pp a.c0 Fp6.pp a.c1
