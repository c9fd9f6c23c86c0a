//! Output checks against computations the benchmark makes itself, apart
//! from the program under test.

use dcuda_des::SplitMix64;

/// Fill `buf` with the seeded byte pattern of message `iter`.
pub fn fill_pattern(buf: &mut [u8], seed: u64, iter: u64) {
    let mut rng = SplitMix64::new(seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for chunk in buf.chunks_mut(8) {
        let w = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
}

/// Check that `buf` holds the pattern [`fill_pattern`] wrote for `iter`.
pub fn check_payload(buf: &[u8], seed: u64, iter: u64, what: &str) -> Result<(), String> {
    let mut want = vec![0u8; buf.len()];
    fill_pattern(&mut want, seed, iter);
    match buf.iter().zip(&want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: message {iter} byte {i} of {} is {:#04x}, the sender wrote {:#04x}",
            buf.len(),
            buf[i],
            want[i]
        )),
    }
}

/// The `u64` lanes rank `rank` contributes to allreduce input set `set`.
pub fn allreduce_input(out: &mut [u8], seed: u64, set: u64, rank: u32) {
    fill_pattern(out, seed ^ (u64::from(rank) << 40), set);
}

/// The wrapping `u64` sum over `world` ranks' inputs of set `set`,
/// computed lane by lane with no call into the program.
pub fn allreduce_reference(len: usize, seed: u64, set: u64, world: u32) -> Vec<u8> {
    let mut acc = vec![0u64; len / 8];
    let mut buf = vec![0u8; len];
    for r in 0..world {
        allreduce_input(&mut buf, seed, set, r);
        for (a, lane) in acc.iter_mut().zip(buf.chunks_exact(8)) {
            let v = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
            *a = a.wrapping_add(v);
        }
    }
    acc.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Check one rank's allreduce result against the reference sum.
pub fn check_allreduce(got: &[u8], want: &[u8], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} bytes, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .chunks_exact(8)
        .zip(want.chunks_exact(8))
        .position(|(a, b)| a != b)
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: element {i} is {:#x}, the wrapping sum is {:#x}",
            u64::from_le_bytes(got[8 * i..8 * i + 8].try_into().expect("lane")),
            u64::from_le_bytes(want[8 * i..8 * i + 8].try_into().expect("lane"))
        )),
    }
}

/// Check a simulated field against its serial reference. The variants
/// share their numerics with the reference, so they must agree to within
/// rounding.
pub fn check_field(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(g, w)| (g - w).abs() > 1e-12 * w.abs().max(1.0) || g.is_nan() != w.is_nan())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {}, the serial reference has {}",
            got[i], want[i]
        )),
    }
}

/// Check a scheduler job's checksum against the same spec run alone.
pub fn check_job(name: &str, completed: bool, checksum: u64, solo: u64) -> Result<(), String> {
    if !completed {
        return Err(format!("job {name} did not complete"));
    }
    if checksum != solo {
        return Err(format!(
            "job {name}: checksum {checksum:#x} differs from its solo run's {solo:#x}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_check_rejects_one_flipped_byte() {
        let mut buf = vec![0u8; 16 << 10];
        fill_pattern(&mut buf, 42, 7);
        assert_eq!(check_payload(&buf, 42, 7, "t"), Ok(()));
        assert!(check_payload(&buf, 42, 8, "t").is_err(), "stale message");
        for at in [0, 63, buf.len() - 1] {
            let mut bad = buf.clone();
            bad[at] ^= 0x01;
            let e = check_payload(&bad, 42, 7, "t").expect_err("flipped byte");
            assert!(e.contains(&format!("byte {at} ")), "{e}");
        }
    }

    #[test]
    fn allreduce_check_rejects_one_perturbed_element() {
        let (len, world) = (4096, 5);
        let want = allreduce_reference(len, 9, 3, world);
        // An independent fold: per-rank inputs summed one rank at a time.
        let mut got = vec![0u8; len];
        let mut inp = vec![0u8; len];
        for r in 0..world {
            allreduce_input(&mut inp, 9, 3, r);
            dcuda_coll::reduce_into(
                &mut got,
                &inp,
                dcuda_coll::ReduceOp::Sum,
                dcuda_coll::Dtype::U64,
            )
            .expect("aligned");
        }
        assert_eq!(check_allreduce(&got, &want, "t"), Ok(()));
        for elem in [0, 17, len / 8 - 1] {
            let mut bad = got.clone();
            bad[8 * elem] = bad[8 * elem].wrapping_add(1);
            let e = check_allreduce(&bad, &want, "t").expect_err("perturbed element");
            assert!(e.contains(&format!("element {elem} ")), "{e}");
        }
        assert!(check_allreduce(&got[8..], &want, "t").is_err());
    }

    #[test]
    fn job_check_rejects_swapped_checksums() {
        let (a, b) = (0xAAAA_u64, 0xBBBB_u64);
        assert_eq!(check_job("a", true, a, a), Ok(()));
        assert_eq!(check_job("b", true, b, b), Ok(()));
        // Two jobs' results swapped: both fail against their solo runs.
        assert!(check_job("a", true, b, a).is_err());
        assert!(check_job("b", true, a, b).is_err());
        assert!(check_job("a", false, a, a).is_err());
    }

    #[test]
    fn field_check_rejects_one_changed_value() {
        let want: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        assert_eq!(check_field(&want, &want, "t"), Ok(()));
        let mut bad = want.clone();
        bad[42] += 1e-6;
        assert!(check_field(&bad, &want, "t").is_err());
        bad[42] = f64::NAN;
        assert!(check_field(&bad, &want, "t").is_err());
        assert!(check_field(&want[1..], &want, "t").is_err());
    }
}
