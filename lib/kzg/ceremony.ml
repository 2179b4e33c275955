(* A simulated "Perpetual Powers of Tau" ceremony (the paper uses the
   Zcash/Semaphore one). Each participant re-randomizes the accumulator
   with a private factor s: tau := tau * s, i.e. g1[i] := [s^i] g1[i].
   A contribution ships a Schnorr proof of knowledge of s over G1 and the
   pairing data needed to check the accumulator was updated honestly. *)

module Nat = Zkdet_num.Nat
module Fr = Zkdet_field.Bn254.Fr
module G1 = Zkdet_curve.G1
module G2 = Zkdet_curve.G2
module Pairing = Zkdet_curve.Pairing
module Sha256 = Zkdet_hash.Sha256
module Telemetry = Zkdet_telemetry.Telemetry

type contribution_proof = {
  s_g1 : G1.t; (* [s]G1 *)
  s_g2 : G2.t; (* [s]G2 *)
  schnorr_commit : G1.t; (* [k]G1 *)
  schnorr_response : Fr.t; (* k + c*s *)
}

type transcript_entry = {
  contributor : string;
  proof : contribution_proof;
  g1_tau_after : G1.t; (* accumulator's [tau]G1 after this contribution *)
  g2_tau_after : G2.t;
}

type state = { srs : Srs.t; transcript : transcript_entry list }

let initial ~size =
  (* tau = 1: g1 powers are all the generator. *)
  let g1_powers = Array.make size G1.generator in
  {
    srs = Srs.make ~g1_powers ~g2:G2.generator ~g2_tau:G2.generator;
    transcript = [];
  }

let challenge (pk : G1.t) (commit : G1.t) : Fr.t =
  Fr.of_bytes_be (Sha256.digest (G1.to_bytes pk ^ G1.to_bytes commit))

let schnorr_prove st (s : Fr.t) : G1.t * Fr.t =
  let k = Fr.random st in
  let commit = G1.mul G1.generator k in
  let c = challenge (G1.mul G1.generator s) commit in
  (commit, Fr.add k (Fr.mul c s))

let schnorr_verify (pk : G1.t) (commit : G1.t) (response : Fr.t) : bool =
  let c = challenge pk commit in
  G1.equal (G1.mul G1.generator response) (G1.add commit (G1.mul pk c))

(** One participant contributes randomness [s] (sampled internally). *)
let contribute ?(st = Random.State.make_self_init ()) ~contributor state =
  Telemetry.with_span "ceremony.contribute" @@ fun () ->
  Telemetry.count "ceremony.contributions" 1;
  let s = Fr.random st in
  let srs = state.srs in
  let n = Srs.size srs in
  let g1_powers = Array.make n G1.zero in
  let s_pow = ref Fr.one in
  for i = 0 to n - 1 do
    g1_powers.(i) <- G1.mul srs.Srs.g1_powers.(i) !s_pow;
    s_pow := Fr.mul !s_pow s
  done;
  let g2_tau = G2.mul srs.Srs.g2_tau s in
  let schnorr_commit, schnorr_response = schnorr_prove st s in
  let proof =
    {
      s_g1 = G1.mul G1.generator s;
      s_g2 = G2.mul G2.generator s;
      schnorr_commit;
      schnorr_response;
    }
  in
  let entry =
    { contributor; proof; g1_tau_after = g1_powers.(min 1 (n - 1)); g2_tau_after = g2_tau }
  in
  {
    (* Srs.make, not a [with] update: the powers changed, so any cached
       fixed-base tables must be dropped with them. *)
    srs = Srs.make ~g1_powers ~g2:srs.Srs.g2 ~g2_tau;
    transcript = state.transcript @ [ entry ];
  }

(** Verify a single contribution link: previous accumulator -> next. *)
let verify_link ~(prev_g1_tau : G1.t) (entry : transcript_entry) : bool =
  Telemetry.with_span "ceremony.verify_link" @@ fun () ->
  let p = entry.proof in
  (* 1. Contributor knows s. *)
  schnorr_verify p.s_g1 p.schnorr_commit p.schnorr_response
  &&
  let g2 = Pairing.G2_prepared.of_g2 G2.generator in
  let s_g2 = Pairing.G2_prepared.of_g2 p.s_g2 in
  (* 2. s is the same in G1 and G2: e([s]G1, G2) = e(G1, [s]G2). *)
  Pairing.pairing_check_prepared [ (p.s_g1, g2); (G1.neg G1.generator, s_g2) ]
  (* 3. New tau point extends the old one by s:
        e(new_tau_g1, G2) = e(old_tau_g1, [s]G2). *)
  && Pairing.pairing_check_prepared
       [ (entry.g1_tau_after, g2); (G1.neg prev_g1_tau, s_g2) ]

(** Verify the whole transcript plus the final SRS's internal consistency. *)
let verify_transcript state : bool =
  let rec go prev = function
    | [] -> true
    | entry :: rest -> verify_link ~prev_g1_tau:prev entry && go entry.g1_tau_after rest
  in
  let n = Srs.size state.srs in
  go G1.generator state.transcript
  && (n < 2 || G1.equal state.srs.Srs.g1_powers.(1)
        (match List.rev state.transcript with
        | [] -> G1.generator
        | last :: _ -> last.g1_tau_after))
  && Srs.verify state.srs
