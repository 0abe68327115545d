//! `DomainIndex::decode` reads a table from disk, so any bytes must give
//! an index or an error, never a panic or an allocation a corrupt count
//! asks for.

use certchain_ctlog::DomainIndex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(index) = DomainIndex::decode(&bytes) {
            prop_assert_eq!(DomainIndex::decode(&index.encode()).map(|i| i.len()), Ok(index.len()));
        }
    }
}
