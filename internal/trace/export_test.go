package trace

// MinChunkedElements is an array length from which Elements always
// hands chunks to its helper when two processors run it: its chunks
// hold at most jsonChunk elements.
const MinChunkedElements = jsonMinChunks * jsonChunk
