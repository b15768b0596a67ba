//! Whole-network weight generation against the float reference: every
//! layer of `NetworkWeights::generate_sampled` must equal, byte for byte,
//! the codes and scale of drawing its floats and quantising them.

#[path = "../../tensor/tests/oracle/mod.rs"]
mod oracle;

use bitwave_dnn::models::{bert_base, cnn_lstm, mobilenet_v2, resnet18, NetworkSpec};
use bitwave_dnn::NetworkWeights;

/// The per-layer salt `NetworkWeights` derives from a layer name.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn assert_network_matches(spec: &NetworkSpec, seeds: &[u64], cap: usize) {
    for &seed in seeds {
        let weights = NetworkWeights::generate_sampled(spec, seed, cap);
        assert_eq!(weights.len(), spec.layers.len());
        for layer in &spec.layers {
            let got = weights.layer(&layer.name).unwrap();
            let profile = layer.weight_profile;
            let want = oracle::generate_int8(
                profile.distribution,
                seed,
                got.shape(),
                fnv1a(layer.name.as_bytes()),
                profile.dynamic_range_utilisation,
            );
            let context = format!("{} {} seed {seed} cap {cap}", spec.name, layer.name);
            assert_eq!(
                got.params().scale.to_bits(),
                want.params().scale.to_bits(),
                "{context}"
            );
            assert!(got == &want, "{context}");
        }
    }
}

fn networks() -> [NetworkSpec; 4] {
    [resnet18(), mobilenet_v2(), cnn_lstm(), bert_base()]
}

#[test]
fn small_caps_match_the_float_path() {
    for spec in networks() {
        for cap in [1_500, 4_000] {
            assert_network_matches(&spec, &[0, 7, 31], cap);
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn large_caps_match_the_float_path() {
    for spec in networks() {
        for cap in [15_000, 60_000] {
            assert_network_matches(&spec, &[0, 7, 31], cap);
        }
    }
}
