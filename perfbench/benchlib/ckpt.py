"""Checkpoint write accounting for `checkpoint_write_amp`.

Each `serve` commit writes a `gen-NNNNNN/` directory. Files it writes
fresh have one link; cert chunks it carries forward are hard links to
the previous generation's files. A file is therefore counted once, in
the first generation that holds its inode: for a generation observed
right after its commit that is exactly its link-count-1 files, and it
stays exact if two commits land between observations.
"""

import os
import re

GEN_DIR = re.compile(r"gen-\d+")
MANIFEST = "checkpoint.json"


class WriteLedger:
    def __init__(self):
        self.seen = set()
        self.bytes_written = 0

    def scan(self, root):
        """Add the bytes of every not-yet-seen file in the committed
        generations under `root`; return the bytes added."""
        files = []
        if os.path.isdir(root):
            for gen in sorted(os.listdir(root)):
                gen_dir = os.path.join(root, gen)
                if GEN_DIR.fullmatch(gen) and os.path.isfile(os.path.join(gen_dir, MANIFEST)):
                    for name in sorted(os.listdir(gen_dir)):
                        st = os.stat(os.path.join(gen_dir, name))
                        files.append(((st.st_dev, st.st_ino), st.st_size))
        # Forget inodes no generation holds any more: pruning frees them,
        # and the file system hands them to the next commit's new files.
        self.seen &= {key for key, _ in files}
        added = 0
        for key, size in files:
            if key not in self.seen:
                self.seen.add(key)
                added += size
        self.bytes_written += added
        return added
